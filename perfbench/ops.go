package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ordxml"
	"ordxml/internal/core/xpath"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// readOp is one read class: an E3 query, or with publish set the E7
// reconstruction of the region subtree.
type readOp struct {
	id, xpath string
	publish   bool
}

// querySuite is the paper's E3 suite Q1–Q9 for a catalog with the given
// items per region.
func querySuite(items int) []readOp {
	mid := max(items/2, 1)
	return []readOp{
		{id: "Q1", xpath: "/site/regions/namerica/item"},
		{id: "Q2", xpath: fmt.Sprintf("/site/regions/namerica/item[%d]", mid)},
		{id: "Q3", xpath: "/site/regions/namerica/item[position() <= 10]"},
		{id: "Q4", xpath: "/site/regions/namerica/item[3]/following-sibling::item"},
		{id: "Q5", xpath: fmt.Sprintf("/site/regions/namerica/item[%d]/preceding-sibling::item", mid)},
		{id: "Q6", xpath: "//keyword"},
		{id: "Q7", xpath: fmt.Sprintf("//item[@id = 'item%d']", mid)},
		{id: "Q8", xpath: "//item[quantity = '5']"},
		{id: "Q9", xpath: "/site/regions/namerica//keyword"},
	}
}

// readOps is the E3 suite plus the E7 region publish.
func readOps(items int) []readOp {
	return append(querySuite(items), readOp{id: "publish", publish: true})
}

// catalog generates the workload's seeded catalog document.
func catalog(items int, seed int64) *xmltree.Node {
	return xmlgen.Catalog(xmlgen.CatalogConfig{Regions: 3, ItemsPerRegion: items, KeywordsPerItem: 2, DescriptionWords: 8, Seed: seed})
}

func (r *runner) read(op readOp) {
	if op.publish {
		r.publish()
		return
	}
	want, err := r.doc.eval(op.xpath)
	if err != nil {
		r.fatal = fmt.Errorf("oracle %s: %w", op.id, err)
		return
	}
	sigs := make([]string, len(r.stores))
	ok := make([]bool, len(r.stores))
	for i, es := range r.stores {
		class := op.id + "/" + es.name()
		req := r.tr.request("request", class)
		var parse time.Duration
		if r.tr != nil {
			pid := r.tr.open("xpath.Parse", class, req, r.tr.reqOf(req))
			t0 := time.Now()
			_, err := xpath.Parse(op.xpath)
			parse = time.Since(t0)
			r.tr.close(pid)
			if err != nil {
				r.fatal = fmt.Errorf("parse %s: %w", op.id, err)
				return
			}
		}
		var res []ordxml.Node
		d, err := r.call(es, "query", class, "Store.QueryCtx", req, func(ctx context.Context) error {
			var err error
			res, err = es.st.QueryCtx(ctx, es.doc, op.xpath)
			return err
		})
		if err == nil {
			ok[i] = r.check(checkNodes(res, want, es.ids), class)
			sigs[i] = signature(res)
		}
		if err == nil && r.tr != nil {
			r.replay(es, op, class, req, d, parse)
		}
		r.tr.close(req)
	}
	r.crossCheck(op.id, sigs, ok)
}

// crossCheck compares the stores' results for one operation with each
// other, on every field the stores return. A store already counted as
// wrong against the oracle is not counted twice.
func (r *runner) crossCheck(op string, sigs []string, ok []bool) {
	for i := 1; i < len(sigs); i++ {
		if ok[i] && ok[0] && sigs[i] != sigs[0] {
			r.fail(true, "%s: %s and %s returned different results", op, r.stores[0].name(), r.stores[i].name())
		}
	}
}

// replay runs, after the timed query, the query's per-segment SQL through
// ExplainSQL (planning) and SQL (execution), as sibling spans under the
// same request. translate's self time is the query's time minus its parse
// and its replayed SQL: the SQL generation, the post-processing lookups
// and the sort.
func (r *runner) replay(es *encStore, op readOp, class string, req int64, query, parse time.Duration) {
	c := r.rec.counts
	sid := r.tr.open("Store.ExplainQuery", class, req, r.tr.reqOf(req))
	sqls, err := es.st.ExplainQuery(es.doc, op.xpath)
	r.tr.close(sid)
	if err != nil {
		r.note(fmt.Sprintf("%s: explain: %v", class, err))
		return
	}
	var exec time.Duration
	for _, q := range sqls {
		sid := r.tr.open("Store.ExplainSQL", class, req, r.tr.reqOf(req))
		t0 := time.Now()
		_, err := es.st.ExplainSQL(q)
		d := time.Since(t0)
		r.tr.close(sid)
		if err != nil {
			r.note(fmt.Sprintf("%s: explain sql: %v", class, err))
			return
		}
		r.rec.sampleFloat("plan_us", float64(d)/1e3)
		if strings.Contains(q, "?") {
			// A segment that runs once per context node binds that node as
			// a parameter; it is planned but not replayed, so its execution
			// stays in translate's self time.
			c["trace.query.unreplayed"]++
			continue
		}
		sid = r.tr.open("Store.SQL", class, req, r.tr.reqOf(req))
		t0 = time.Now()
		_, err = es.st.SQL(q)
		exec += time.Since(t0)
		r.tr.close(sid)
		if err != nil {
			r.note(fmt.Sprintf("%s: replay sql: %v", class, err))
			return
		}
	}
	r.rec.sampleFloat("parse_us", float64(parse)/1e3)
	c["trace.query.n"]++
	c["trace.query.self_ms"] += ms(query - parse - exec)
	c["trace.query.exec_ms"] += ms(exec)
}

func (r *runner) publish() {
	region := r.region()
	want := region.String()
	knodes := float64(region.Size()) / 1000
	sigs := make([]string, len(r.stores))
	ok := make([]bool, len(r.stores))
	for i, es := range r.stores {
		class := "publish/" + es.name()
		req := r.tr.request("request", class)
		var got string
		d, err := r.call(es, "publish", class, "Store.SerializeCtx", req, func(ctx context.Context) error {
			var err error
			got, err = es.st.SerializeCtx(ctx, es.doc, es.ids[region])
			return err
		})
		r.tr.close(req)
		if err != nil {
			continue
		}
		if got != want {
			r.fail(true, "%s: serialized region differs from the oracle", class)
		} else {
			ok[i] = true
		}
		sigs[i] = got
		if r.tr != nil {
			r.rec.counts["trace.publish.n"]++
			r.rec.counts["trace.publish.ms_per_knode"] += ms(d) / knodes
		}
	}
	r.crossCheck("publish", sigs, ok)
}

// region is the oracle's first region, the E7 subtree and the region the
// E4 inserts go into.
func (r *runner) region() *xmltree.Node {
	return r.doc.root.Children[0].Children[0]
}

// insert positions: a region's first item, its middle item and after its
// last item.
var positions = []string{"begin", "middle", "end"}

// insertPair inserts a fresh seeded item next to the position's window
// item and then deletes the window item, which the previous pair at this
// position inserted. The document keeps its size, and every insert lands
// on a densely numbered stretch: a delete leaves a hole in the order keys,
// and the program fills a hole at the insert point without renumbering, so
// deleting the subtree just inserted would make every later insert at
// that point renumber nothing.
func (r *runner) insertPair(pos int) {
	w := r.window[pos]
	after := positions[pos] == "end"
	mode := ordxml.Before
	if after {
		mode = ordxml.After
	}
	frag := r.fragment()
	fragXML := frag.String()
	newIDs := make([]int64, len(r.stores))
	var broken []*encStore
	for i, es := range r.stores {
		want := renumberModel(es.enc, r.doc.root, w, after)
		target := es.ids[w]
		class := "insert-" + positions[pos] + "/" + es.name()
		req := r.tr.request("request", class)
		var rep ordxml.UpdateReport
		_, err := r.call(es, "insert", class, "Store.InsertCtx", req, func(ctx context.Context) error {
			var err error
			rep, err = es.st.InsertCtx(ctx, es.doc, target, mode, fragXML)
			return err
		})
		r.tr.close(req)
		if err != nil {
			broken = append(broken, es)
			continue
		}
		newIDs[i] = rep.NewID
		r.countUpdate(rep)
		if rep.RowsRenumbered != want || rep.RowsInserted != int64(frag.Size()) {
			r.fail(true, "%s: renumbered %d and inserted %d rows, cost model says %d and %d",
				class, rep.RowsRenumbered, rep.RowsInserted, want, frag.Size())
		}
		if r.record {
			r.rec.counts["insert.renumbered"] += float64(rep.RowsRenumbered)
		}

		class = "delete-" + positions[pos] + "/" + es.name()
		req = r.tr.request("request", class)
		_, err = r.call(es, "delete", class, "Store.DeleteCtx", req, func(ctx context.Context) error {
			var err error
			rep, err = es.st.DeleteCtx(ctx, es.doc, target)
			return err
		})
		r.tr.close(req)
		if err != nil {
			broken = append(broken, es)
			continue
		}
		r.countUpdate(rep)
		if rep.RowsDeleted != int64(w.Size()) {
			r.fail(true, "%s: deleted %d rows, subtree has %d", class, rep.RowsDeleted, w.Size())
		}
	}
	i := indexOf(w.Parent.Children, w)
	if after {
		i++
	}
	insertAt(w.Parent, i, frag)
	removeChild(w)
	w.Walk(func(n *xmltree.Node) bool {
		for _, es := range r.stores {
			delete(es.ids, n)
		}
		return true
	})
	r.doc.changed()
	r.window[pos] = frag
	for i, es := range r.stores {
		if newIDs[i] != 0 {
			assignIDs(frag, newIDs[i], es.ids)
		}
	}
	r.pairs++
	r.repair(broken)
	if r.pairs%8 == 0 {
		r.checkDocuments("after insert/delete pair")
	}
}

func (r *runner) countUpdate(rep ordxml.UpdateReport) {
	if r.record {
		r.rec.counts["update.rows"] += float64(rep.RowsInserted + rep.RowsRenumbered + rep.RowsDeleted)
	}
}

// repair rebuilds stores whose state is unknown after a failed call.
func (r *runner) repair(broken []*encStore) {
	for _, es := range broken {
		if err := r.rebuild(es); err != nil {
			r.fatal = err
		}
	}
}

// fragment generates a fresh seeded item, shaped like the catalog's items,
// with a unique id attribute.
func (r *runner) fragment() *xmltree.Node {
	r.fragments++
	doc := catalog(1, r.rng.Int63())
	item := doc.Children[0].Children[0].Children[0]
	item.Parent = nil
	item.SetAttr("id", fmt.Sprintf("ins%d", r.fragments))
	return item
}

// checkDocuments compares every store's whole document with the oracle.
func (r *runner) checkDocuments(when string) {
	want := r.doc.String()
	for _, es := range r.stores {
		got, err := es.st.SerializeDocument(es.doc)
		if err != nil {
			r.fail(true, "%s %s: serialize document: %v", when, es.name(), err)
		} else if got != want {
			r.fail(true, "%s %s: document differs from the oracle", when, es.name())
		}
	}
}

// editPair sets a seeded item's name text to a fresh value, or with rename
// renames its name element, and then restores it. Each half is one timed
// point edit; after the first half the item is read back and compared.
func (r *runner) editPair(rename bool) {
	item := r.items[r.rng.Intn(len(r.items))]
	name := item.Children[0]
	text := name.Children[0]
	op := "setvalue"
	oldV, newV := text.Value, words(r, 2)
	target := text
	if rename {
		op = "rename"
		oldV, newV = name.Tag, "title"
		target = name
	}
	set := func(v string) {
		if rename {
			name.Tag = v
		} else {
			text.Value = v
		}
	}
	set(newV)
	want := item.String()
	set(oldV)
	var broken []*encStore
	for _, es := range r.stores {
		class := op + "/" + es.name()
		ok := true
		for half, v := range []string{newV, oldV} {
			req := r.tr.request("request", class)
			_, err := r.call(es, "edit", class, "Store."+op, req, func(ctx context.Context) error {
				if rename {
					return es.st.RenameCtx(ctx, es.doc, es.ids[target], v)
				}
				return es.st.SetValueCtx(ctx, es.doc, es.ids[target], v)
			})
			r.tr.close(req)
			if err != nil {
				ok = false
				break
			}
			if half == 0 {
				got, err := es.st.Serialize(es.doc, es.ids[item])
				if err != nil || got != want {
					r.fail(true, "%s: edited item reads back as %q (err %v), want %q", class, got, err, want)
				}
			}
		}
		if !ok {
			broken = append(broken, es)
		}
	}
	r.repair(broken)
}

func words(r *runner, n int) string {
	w := make([]string, n)
	for i := range w {
		w[i] = fmt.Sprintf("w%d", r.rng.Intn(1000))
	}
	return strings.Join(w, " ")
}

// loadItems sizes the catalogs that loadDrop generates.
const loadItems = 30

// loadDrop loads a fresh seeded document into every store, checks it reads
// back unchanged, and drops it. Shape 0 is a wide catalog, 1 a deep play.
func (r *runner) loadDrop(shape int) {
	var doc *xmltree.Node
	name := "catalog"
	if shape == 0 {
		doc = catalog(loadItems, r.rng.Int63())
	} else {
		name = "play"
		doc = xmlgen.Play(xmlgen.PlayConfig{Acts: 3, ScenesPerAct: 4, SpeechesPerScene: 10, LinesPerSpeech: 3, Seed: r.rng.Int63()})
	}
	xml := doc.String()
	nodes := float64(doc.Size())
	for _, es := range r.stores {
		class := "load-" + name + "/" + es.name()
		req := r.tr.request("request", class)
		var id ordxml.DocID
		d, err := r.call(es, "load", class, "Store.LoadCtx", req, func(ctx context.Context) error {
			var err error
			id, err = es.st.LoadCtx(ctx, name, strings.NewReader(xml))
			return err
		})
		r.tr.close(req)
		if err != nil {
			continue
		}
		if r.record && r.tr == nil {
			r.rec.perNode.add(class, time.Duration(float64(d)*1000/nodes))
		}
		if r.record {
			r.rec.counts["load.nodes"] += nodes
			r.rec.counts["load.rows"] += float64(docNodes(es.st, id))
		}
		if got, err := es.st.SerializeDocument(id); err != nil || got != xml {
			r.fail(true, "%s: loaded document reads back differently (err %v)", class, err)
		}
		class = "drop-" + name + "/" + es.name()
		req = r.tr.request("request", class)
		r.call(es, "drop", class, "Store.DropCtx", req, func(ctx context.Context) error {
			return es.st.DropCtx(ctx, id)
		})
		r.tr.close(req)
	}
}

// docNodes is the node count the store recorded for a document.
func docNodes(st *ordxml.Store, id ordxml.DocID) int64 {
	docs, err := st.Documents()
	if err != nil {
		return 0
	}
	for _, d := range docs {
		if d.ID == id {
			return d.Nodes
		}
	}
	return 0
}

// checkpoint checkpoints every durable store; a store whose checkpoint
// fails is rebuilt.
func (r *runner) checkpoint() {
	var broken []*encStore
	for _, es := range r.stores {
		class := "checkpoint/" + es.name()
		req := r.tr.request("request", class)
		_, err := r.call(es, "checkpoint", class, "Store.CheckpointCtx", req, func(ctx context.Context) error {
			return es.st.CheckpointCtx(ctx)
		})
		r.tr.close(req)
		if err != nil {
			broken = append(broken, es)
		}
	}
	r.repair(broken)
}

// reopen closes every durable store, with mutations still in its log tail,
// and opens it again: recovery, replay of the tail and the integrity check.
// The reopened store must serialize to its text before the close.
func (r *runner) reopen() {
	want := r.doc.String()
	var broken []*encStore
	for _, es := range r.stores {
		class := "reopen/" + es.name()
		pre, err := es.st.SerializeDocument(es.doc)
		if err != nil || pre != want {
			r.fail(true, "%s: document before close differs from the oracle (err %v)", class, err)
		}
		if err := es.st.Close(); err != nil {
			r.note(fmt.Sprintf("%s: close: %v", class, err))
		}
		req := r.tr.request("request", class)
		rt0 := readRuntime()
		sid := r.tr.open("ordxml.OpenDurable", class, req, r.tr.reqOf(req))
		t0 := time.Now()
		st, err := ordxml.OpenDurable(es.dir, r.durableOptions(es.enc))
		d := time.Since(t0)
		r.tr.close(sid)
		rt1 := readRuntime()
		r.rec.attempted++
		if r.record && r.tr == nil {
			r.rec.busy += d
			r.rec.ops++
		} else if r.record {
			r.rec.tracedBusy += d
			r.rec.tracedOps++
		}
		if err != nil {
			r.fail(false, "%s: %v", class, err)
			r.tr.close(req)
			es.st = nil
			broken = append(broken, es)
			continue
		}
		es.st = st
		if r.record {
			r.addCounts("reopen", make([]int64, len(storeCounters)), readCounters(st))
			c := r.rec.counts
			c["rt.reopen.allocs"] += rt1[0] - rt0[0]
			c["rt.reopen.bytes"] += rt1[1] - rt0[1]
			c["rt.reopen.gc"] += rt1[2] - rt0[2]
			c["rt.reopen.n"]++
			if r.tr == nil {
				r.rec.sample("reopen", class, d)
			}
		}
		if r.tr != nil {
			sid := r.tr.open("Store.CheckIntegrity", class, req, r.tr.reqOf(req))
			t0 := time.Now()
			probs, err := st.CheckIntegrity()
			r.rec.sampleFloat("integrity_ms", ms(time.Since(t0)))
			r.tr.close(sid)
			if err != nil || len(probs) > 0 {
				r.fail(true, "%s: integrity check after reopen: %v %v", class, err, probs)
			}
		}
		r.tr.close(req)
		if got, err := st.SerializeDocument(es.doc); err != nil || got != pre {
			r.fail(true, "%s: reopened store serializes differently from before the close (err %v)", class, err)
		}
	}
	r.repair(broken)
}
