package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ordxml"
	"ordxml/internal/core/xpath"
	"ordxml/internal/xmltree"
)

// workload is one set of inputs the benchmark runs. Every workload runs
// each logical operation on the three encodings in turn, so the stores
// hold the same document between operations.
type workload struct {
	name   string
	items  int // catalog items per region
	frames int // buffer pool frames; 0 for memory stores
	// pairs is set when the workload inserts and deletes; set-up then
	// inserts the first window item at each position.
	pairs bool
	round func(r *runner, i int)
	// heapRound is the round after which live_heap_mb is taken. The stores
	// keep space freed by deletes and dropped documents, so the heap grows
	// with the work done; taking it after a fixed number of rounds makes
	// it measure the same work in every run.
	heapRound int
	// cycle is the number of rounds after which the round pattern repeats;
	// a traced run alternates untraced and traced blocks of cycle rounds,
	// so that both see every class.
	cycle int
	// reopens is the number of reopen cycles after the timed rounds.
	reopens int
	// warm is the untimed warm pass: it runs every operation class at
	// least once.
	warm func(r *runner, round func(*runner, int))
}

// Rounds run their operations in a fixed order; the seed decides the
// documents, the inserted fragments, the edited items and the new values.
// A seeded shuffle would give each seed another buffer-pool state before
// each paged read, and so another cost for the same class.
var workloads = []workload{
	{
		name: "ordered_read", items: 200, heapRound: 40, cycle: 1,
		round: func(r *runner, i int) {
			for _, op := range r.reads {
				r.read(op)
			}
		},
		warm: func(r *runner, round func(*runner, int)) { round(r, 0) },
	},
	{
		// A round is ten operations: one insert/delete pair, cycling
		// through the positions, two point-edit pairs, a load and a drop,
		// one E3 query, cycling through Q1–Q9, and one region publish.
		name: "ordered_edit", items: 100, pairs: true, heapRound: 60, cycle: 18,
		round: func(r *runner, i int) {
			r.insertPair(i % 3)
			r.editPair(false)
			r.editPair(true)
			r.loadDrop(i % 2)
			r.read(r.reads[i%(len(r.reads)-1)])
			r.publish()
		},
		warm: func(r *runner, round func(*runner, int)) {
			for i := 0; i < len(r.reads)-1; i++ {
				round(r, i)
			}
		},
	},
	{
		name: "paged_durable", items: 200, frames: 256, pairs: true, heapRound: 12, cycle: 1,
		round: func(r *runner, i int) {
			// Each read class runs twice a round: the pairs cost most of a
			// round, and the reads need the samples.
			twice := append(append([]readOp(nil), r.reads...), r.reads...)
			for k, op := range twice {
				if k%3 == 0 && k/3 < len(positions) {
					r.insertPair(k / 3)
				}
				r.read(op)
			}
			// The checkpoint covers the three pairs and the previous
			// round's edits.
			r.checkpoint()
			r.editPair(false)
			r.editPair(true)
		},
		// The reopens follow the timed rounds: the program never frees a
		// closed paged store, so reopens between rounds would leave a
		// growing heap, and growing garbage-collection work, on the rounds
		// after them.
		reopens: 5,
		warm: func(r *runner, round func(*runner, int)) {
			round(r, 0)
			r.reopenCycle()
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setup is the fixed set-up work: generate the document from the seed,
// load it into the three stores, insert the first window items, checkpoint
// paged stores, and make one untimed warm pass over every class.
func (r *runner) setup(w workload) error {
	r.rng = rand.New(rand.NewSource(r.cfg.seed))
	r.pairs, r.fragments = 0, 0
	r.doc = newOracle(catalog(r.cfg.items, r.cfg.seed))
	r.items = nil
	for _, region := range r.doc.root.Children[0].Children {
		r.items = append(r.items, region.Children...)
	}
	for _, enc := range encodings {
		es, err := r.openStore(enc)
		if err != nil {
			return fmt.Errorf("open %s: %w", enc, err)
		}
		r.stores = append(r.stores, es)
		if err := r.loadDoc(es); err != nil {
			return err
		}
	}
	if w.pairs {
		if err := r.seedWindows(); err != nil {
			return err
		}
	}
	if r.frames > 0 {
		for _, es := range r.stores {
			if err := es.st.Checkpoint(); err != nil {
				r.note(fmt.Sprintf("setup: checkpoint %s: %v", es.name(), err))
				if err := r.rebuild(es); err != nil {
					return err
				}
			}
		}
	}
	w.warm(r, w.round)
	return r.fatal
}

// seedWindows inserts, at each insert position of the first region, the
// item the first timed pair will insert next to and delete.
func (r *runner) seedWindows() error {
	region := r.region()
	items := region.Children
	// Resolve the anchors first: inserting into region.Children shifts items.
	anchors := []*xmltree.Node{items[0], items[len(items)/2], items[len(items)-1]}
	for pos, anchor := range anchors {
		after := positions[pos] == "end"
		mode := ordxml.Before
		if after {
			mode = ordxml.After
		}
		frag := r.fragment()
		for _, es := range r.stores {
			rep, err := es.st.Insert(es.doc, es.ids[anchor], mode, frag.String())
			if err != nil {
				return fmt.Errorf("insert window item %s: %w", es.name(), err)
			}
			assignIDs(frag, rep.NewID, es.ids)
		}
		i := indexOf(region.Children, anchor)
		if after {
			i++
		}
		insertAt(region, i, frag)
		r.doc.changed()
		r.window[pos] = frag
	}
	return nil
}

// result is what one run measured.
type result struct {
	setups     []time.Duration
	heapInuse  uint64
	diskRatios []float64
	// pages is each paged store's page count after the final checkpoint.
	pages []int64
}

// pageSize is the program's page size, for reporting page counts.
const pageSize = 8192

// run executes one run of a workload: set-up, the timed phase, then the
// end-of-run checks.
func run(cfg config) (*runner, *result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.items == 0 {
		cfg.items = w.items
	}
	r := &runner{cfg: cfg, frames: w.frames, rec: newRecorder(), phase: "setup"}
	if cfg.frames > 0 && w.frames > 0 {
		r.frames = cfg.frames
	}
	r.reads = readOps(cfg.items)
	res := &result{}
	work, err := workDir(cfg.work)
	if err != nil {
		return nil, nil, err
	}
	r.cfg.work = work
	defer os.RemoveAll(work)
	defer r.closeStores()

	t0 := time.Now()
	if err := r.setup(w); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	res.setups = append(res.setups, time.Since(t0))
	if cfg.setupOnly {
		return r, res, nil
	}

	if cfg.trace {
		r.spans = newTracer()
	}
	r.record, r.phase = true, "timed"
	start := time.Now()
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	more := func(i int) bool {
		if cfg.rounds > 0 {
			return i < cfg.rounds
		}
		return time.Since(start) < deadline
	}
	for i := 0; more(i) && r.fatal == nil; i++ {
		r.tr = nil
		if cfg.trace && (i/w.cycle)%2 == 1 {
			r.tr = r.spans
		}
		w.round(r, i)
		if i+1 == w.heapRound {
			res.heapInuse = liveHeap()
		}
	}
	r.tr = nil
	if res.heapInuse == 0 {
		res.heapInuse = liveHeap()
	}
	for k := 0; k < w.reopens && r.fatal == nil; k++ {
		if cfg.trace && k%2 == 1 {
			r.tr = r.spans
		}
		r.reopenCycle()
		r.tr = nil
	}
	if r.frames > 0 {
		r.checkpoint()
	}
	if r.fatal != nil {
		return nil, nil, r.fatal
	}

	r.record, r.phase = false, "end of run"
	if err := r.finalChecks(res); err != nil {
		return nil, nil, err
	}
	if cfg.trace {
		if err := r.spans.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, nil, err
		}
	}
	return r, res, nil
}

// reopenCycle checkpoints, makes two point-edit pairs, which stay in the
// log tail, and closes and reopens every store.
func (r *runner) reopenCycle() {
	r.checkpoint()
	r.editPair(false)
	r.editPair(true)
	r.reopen()
}

// liveHeap is HeapInuse after a forced collection, stores still open.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// finalChecks compares every store with the oracle once more: the whole
// document, every query's string values, and the storage invariants. For
// paged stores it also measures the files after the final checkpoint.
func (r *runner) finalChecks(res *result) error {
	r.checkDocuments("end of run")
	for _, op := range r.reads {
		if op.publish {
			continue
		}
		want, err := r.doc.eval(op.xpath)
		if err != nil {
			return err
		}
		vals := xpath.StringValues(want)
		for _, es := range r.stores {
			got, err := es.st.QueryValues(es.doc, op.xpath)
			if err != nil || fmt.Sprint(got) != fmt.Sprint(vals) {
				r.fail(true, "%s/%s: string values differ from the oracle (err %v)", op.id, es.name(), err)
			}
		}
	}
	for _, es := range r.stores {
		sid := r.spans.open("Store.CheckIntegrity", "integrity/"+es.name(), 0, 0)
		t0 := time.Now()
		probs, err := es.st.CheckIntegrity()
		if r.spans != nil {
			r.rec.sampleFloat("integrity_ms", ms(time.Since(t0)))
		}
		r.spans.close(sid)
		if err != nil || len(probs) > 0 {
			r.fail(true, "%s: integrity check: %v %v", es.name(), err, probs)
		}
		if es.dir == "" {
			continue
		}
		var size int64
		for _, f := range []string{"pages.db", "meta.db", "wal.log"} {
			if fi, err := os.Stat(filepath.Join(es.dir, f)); err == nil {
				size += fi.Size()
				if f == "pages.db" {
					res.pages = append(res.pages, fi.Size()/pageSize)
				}
			}
		}
		res.diskRatios = append(res.diskRatios, float64(size)/float64(len(r.doc.String())))
	}
	return nil
}
