package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"time"

	"ordxml"
	"ordxml/internal/xmltree"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is a directory inside the checkout for durable stores and the
	// span file; the run removes what it creates there.
	work string
	// items is the catalog's items per region and frames the buffer pool
	// size; zero selects the workload's own size. The self-test shrinks them.
	items, frames int
	// setupOnly stops the run after set-up, for a child process that only
	// times set-up.
	setupOnly bool
	// rounds, when positive, replaces the timed phase's length by a fixed
	// number of rounds, so the self-test can compare counts exactly.
	rounds int
}

var encodings = []ordxml.Encoding{ordxml.Global, ordxml.Local, ordxml.Dewey}

// encStore is one store of a workload: one encoding holding the workload's
// document.
type encStore struct {
	enc ordxml.Encoding
	st  *ordxml.Store
	doc ordxml.DocID
	dir string // durable stores only
	// ids maps each oracle node to its node id in this store.
	ids map[*xmltree.Node]int64
}

func (es *encStore) name() string { return es.enc.String() }

// runner executes a workload's operations against its stores in a closed
// loop: one client, each call waits for the previous reply.
type runner struct {
	cfg    config
	rng    *rand.Rand
	stores []*encStore
	doc    *oracle
	frames int
	// record is false during set-up and the warm pass, whose latencies and
	// counts are not kept.
	record bool
	// tr is the span recorder in traced rounds and nil otherwise; spans is
	// the run's recorder (nil in untraced runs).
	tr, spans *tracer
	rec       *recorder
	// phase names the part of the run in failure lines.
	phase string
	// fatal is set when a store cannot be rebuilt; the run stops.
	fatal error

	reads []readOp
	// items are the catalog's generated items, the targets of point edits;
	// window holds, per insert position, the item the last pair inserted.
	items     []*xmltree.Node
	window    [3]*xmltree.Node
	pairs     int
	fragments int
}

// recorder accumulates a run's samples and counts.
type recorder struct {
	lat map[string]classSamples // by group: query, publish, insert, ...
	// perNode holds load times per thousand nodes, by class.
	perNode classSamples
	// attempted and failed count every operation, warm pass included;
	// checkFailures counts wrong results among the failures.
	attempted, failed, checkFailures int
	// failures lists the first failures; failureCount counts all listed.
	failures     []string
	failureCount int
	// busy is the time spent inside timed calls of untraced rounds, ops
	// their number; the traced fields cover traced rounds.
	busy, tracedBusy time.Duration
	ops, tracedOps   int
	// counts holds summed per-layer counts, keyed "<group>.<metric>", and
	// "<group>.n" the number of operations of the group.
	counts map[string]float64
	// floats holds traced per-call values such as plan_us.
	floats map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{lat: map[string]classSamples{}, perNode: classSamples{}, counts: map[string]float64{}, floats: map[string][]float64{}}
}

func (r *recorder) sampleFloat(name string, v float64) {
	r.floats[name] = append(r.floats[name], v)
}

func (r *recorder) sample(group, class string, d time.Duration) {
	if r.lat[group] == nil {
		r.lat[group] = classSamples{}
	}
	r.lat[group].add(class, d)
}

// fail records a failed operation: an error, or with wrong set a result
// that did not match the oracle. Operations of the warm pass count too.
func (r *runner) fail(wrong bool, format string, a ...any) {
	r.rec.failed++
	if wrong {
		r.rec.checkFailures++
	}
	r.note(r.phase + ": " + fmt.Sprintf(format, a...))
}

// note lists a failure in the run's output without counting it.
func (r *runner) note(msg string) {
	r.rec.failureCount++
	if len(r.rec.failures) < 50 {
		r.rec.failures = append(r.rec.failures, msg)
	}
}

// storeCounters are the Store.Metrics() entries whose change across an
// operation is attributed to that operation.
var storeCounters = []string{
	"sqldb.queries", "xpath.queries", "sqldb.plancache.hits", "sqldb.plancache.misses",
	"storage.rows_scanned", "storage.index_probes", "storage.heap.page_reads",
	"storage.btree.node_reads", "sqldb.view.publishes",
	"bufpool.hits", "bufpool.misses", "bufpool.evictions", "bufpool.dirty_flushes",
	"wal.appends", "wal.append.bytes", "wal.fsyncs", "wal.replay.records",
}

func readCounters(st *ordxml.Store) []int64 {
	m := st.Metrics()
	out := make([]int64, len(storeCounters))
	for i, k := range storeCounters {
		if v, ok := m.Counters[k]; ok {
			out[i] = v
		} else {
			out[i] = m.Gauges[k]
		}
	}
	return out
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() [3]float64 {
	metrics.Read(runtimeSamples)
	var out [3]float64
	for i, s := range runtimeSamples {
		out[i] = float64(s.Value.Uint64())
	}
	return out
}

// call runs one timed operation on es. Store counters and Go runtime
// counters are read outside the timed interval. group names the latency
// set and class the operation class; parent is the request span.
func (r *runner) call(es *encStore, group, class, spanName string, parent int64, fn func(ctx context.Context) error) (time.Duration, error) {
	before := readCounters(es.st)
	rt0 := readRuntime()
	sid := r.tr.open(spanName, class, parent, r.tr.reqOf(parent))
	t0 := time.Now()
	err := fn(context.Background())
	d := time.Since(t0)
	r.tr.close(sid)
	rt1 := readRuntime()
	after := readCounters(es.st)
	r.rec.attempted++
	if err != nil {
		r.fail(false, "%s: %v", class, err)
		return d, err
	}
	if !r.record {
		return d, nil
	}
	if r.tr == nil {
		r.rec.busy += d
		r.rec.ops++
	} else {
		r.rec.tracedBusy += d
		r.rec.tracedOps++
	}
	r.addCounts(group, before, after)
	c := r.rec.counts
	c["rt."+group+".allocs"] += rt1[0] - rt0[0]
	c["rt."+group+".bytes"] += rt1[1] - rt0[1]
	c["rt."+group+".gc"] += rt1[2] - rt0[2]
	c["rt."+group+".n"]++
	if r.tr == nil {
		r.rec.sample(group, class, d)
	}
	return d, nil
}

func (r *runner) addCounts(group string, before, after []int64) {
	c := r.rec.counts
	for i, k := range storeCounters {
		c[group+"."+k] += float64(after[i] - before[i])
	}
	c[group+".n"]++
}

// check records a wrong result of the operation just run, which counted
// as attempted, and reports whether the result was right.
func (r *runner) check(err error, class string) bool {
	if err != nil {
		r.fail(true, "%s: wrong result: %v", class, err)
	}
	return err == nil
}

// openStore creates the store for enc: a memory store, or a durable paged
// store in a fresh directory when the workload has a buffer pool.
func (r *runner) openStore(enc ordxml.Encoding) (*encStore, error) {
	es := &encStore{enc: enc, ids: map[*xmltree.Node]int64{}}
	var err error
	if r.frames == 0 {
		es.st, err = ordxml.Open(ordxml.Options{Encoding: enc})
		return es, err
	}
	es.dir, err = os.MkdirTemp(r.cfg.work, "store-"+enc.String()+"-")
	if err != nil {
		return nil, err
	}
	es.st, err = ordxml.OpenDurable(es.dir, r.durableOptions(enc))
	return es, err
}

func (r *runner) durableOptions(enc ordxml.Encoding) ordxml.Options {
	return ordxml.Options{Encoding: enc, BufferPoolFrames: r.frames}
}

// loadDoc loads the oracle's document into es and numbers its nodes.
func (r *runner) loadDoc(es *encStore) error {
	id, err := es.st.LoadString("doc", r.doc.String())
	if err != nil {
		return fmt.Errorf("load %s: %w", es.name(), err)
	}
	es.doc = id
	clear(es.ids)
	assignIDs(r.doc.root, 1, es.ids)
	return nil
}

// closeStores closes every store and removes durable directories.
func (r *runner) closeStores() {
	for _, es := range r.stores {
		es.st.Close()
		if es.dir != "" {
			os.RemoveAll(es.dir)
		}
	}
	r.stores = nil
}

// rebuild replaces a store whose state is no longer known, after a failed
// checkpoint, reopen or mutation, with a fresh one loaded from the last
// document the workload acknowledged. The program's checkpoint can fail
// again on the fresh store, so it is tried up to three times.
func (r *runner) rebuild(es *encStore) error {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		if es.st != nil {
			es.st.Close()
		}
		var err error
		if es.dir == "" {
			es.st, err = ordxml.Open(ordxml.Options{Encoding: es.enc})
		} else {
			os.RemoveAll(es.dir)
			if err := os.MkdirAll(es.dir, 0o755); err != nil {
				return err
			}
			es.st, err = ordxml.OpenDurable(es.dir, r.durableOptions(es.enc))
		}
		if err != nil {
			return fmt.Errorf("rebuild %s: %w", es.name(), err)
		}
		if err := r.loadDoc(es); err != nil {
			return err
		}
		if es.dir == "" {
			return nil
		}
		if last = es.st.Checkpoint(); last == nil {
			return nil
		}
		r.note(fmt.Sprintf("rebuild %s: checkpoint: %v", es.name(), last))
	}
	return fmt.Errorf("rebuild %s: %w", es.name(), last)
}

func workDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
