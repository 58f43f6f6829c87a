package main

import (
	"fmt"
	"strings"
	"time"
)

// measured is one metric with the number of samples behind it.
type measured struct {
	value   float64
	unit    string
	samples int
	note    string
	kind    metricKind
}

type metricKind int

const (
	perLayer  metricKind = iota
	endToEnd             // measured by every workload and gated
	printOnly            // a latency only some workloads measure
)

// metricKinds sorts the metrics that are not per-layer. The end-to-end ones are
// the end_to_end list of BENCHMARK.json. The print-only latencies are
// printed with their sample counts but kept out of the JSON result: a
// workload without such operations would report a time of 0 on every run.
var metricKinds = map[string]metricKind{
	"setup_s": endToEnd, "ops_per_s": endToEnd, "ok_op_ratio": endToEnd, "query_p50_ms": endToEnd,
	"query_tail_ms": endToEnd, "publish_p50_ms": endToEnd, "live_heap_mb": endToEnd,
	"update_p50_ms": printOnly, "update_tail_ms": printOnly, "edit_p50_ms": printOnly,
	"load_us_per_node": printOnly, "checkpoint_p50_ms": printOnly, "reopen_p50_ms": printOnly,
}

// measure computes every metric of a run.
func measure(r *runner, res *result) map[string]measured {
	rec := r.rec
	out := map[string]measured{}
	put := func(name string, v float64, unit string, n int, note string) {
		out[name] = measured{value: v, unit: unit, samples: n, note: note, kind: metricKinds[name]}
	}
	c := rec.counts

	var setup []float64
	for _, d := range res.setups {
		setup = append(setup, d.Seconds())
	}
	put("setup_s", medianFloat(setup), "s", len(setup), "")
	put("ops_per_s", opsPerSecond(rec.lat), "1/s", rec.ops, "")
	put("ok_op_ratio", ratio(float64(rec.attempted-rec.failed), float64(rec.attempted)), "ratio", rec.attempted, "")
	put("live_heap_mb", float64(res.heapInuse)/(1<<20), "MB", 1, "")
	latency := func(name string, s classSamples) {
		put(name, s.geoMeanOfMedians(), "ms", s.count(), fmt.Sprintf(" classes=%d", len(s)))
	}
	tail := func(name string, s classSamples) {
		v, p := s.tail(tailPercentile)
		put(name, v, "ms", s.count(), fmt.Sprintf(" percentile=p%g", p))
	}
	updates := classSamples{}
	for _, g := range []string{"insert", "delete"} {
		for k, v := range rec.lat[g] {
			updates[k] = v
		}
	}
	latency("query_p50_ms", rec.lat["query"])
	tail("query_tail_ms", rec.lat["query"])
	latency("publish_p50_ms", rec.lat["publish"])
	latency("update_p50_ms", updates)
	tail("update_tail_ms", updates)
	latency("edit_p50_ms", rec.lat["edit"])
	put("load_us_per_node", rec.perNode.geoMeanOfMedians(), "us", rec.perNode.count(), "")
	latency("checkpoint_p50_ms", rec.lat["checkpoint"])
	latency("reopen_p50_ms", rec.lat["reopen"])
	put("disk_bytes_per_xml_byte", geoMean(res.diskRatios), "ratio", len(res.diskRatios), "")

	// Per-layer counts, from Store.Metrics() deltas around each call.
	nq := c["query.n"]
	put("translate.statements_per_query", ratio(c["query.sqldb.queries"], c["query.xpath.queries"]), "count", int(nq), "")
	put("sqldb.plancache_hit_ratio", ratio(c["query.sqldb.plancache.hits"], c["query.sqldb.plancache.hits"]+c["query.sqldb.plancache.misses"]), "ratio", int(nq), "")
	put("storage.rows_scanned_per_query", ratio(c["query.storage.rows_scanned"], nq), "count", int(nq), "")
	put("storage.index_probes_per_query", ratio(c["query.storage.index_probes"], nq), "count", int(nq), "")
	put("storage.page_reads_per_query", ratio(c["query.storage.heap.page_reads"]+c["query.storage.btree.node_reads"], nq), "count", int(nq), "")
	put("publish.statements_per_call", ratio(c["publish.sqldb.queries"], c["publish.n"]), "count", int(c["publish.n"]), "")
	ni := c["insert.n"]
	nupd := ni + c["delete.n"]
	put("update.rows_renumbered_per_insert", ratio(c["insert.renumbered"], ni), "count", int(ni), "")
	put("update.index_probes_per_insert", ratio(c["insert.storage.index_probes"], ni), "count", int(ni), "")
	put("update.useful_ratio", ratio(c["update.rows"], c["insert.storage.index_probes"]+c["insert.storage.rows_scanned"]+c["delete.storage.index_probes"]+c["delete.storage.rows_scanned"]), "ratio", int(nupd), "")
	nmut := nupd + c["edit.n"]
	put("update.view_publishes_per_op", ratio(c["insert.sqldb.view.publishes"]+c["delete.sqldb.view.publishes"]+c["edit.sqldb.view.publishes"], nmut), "count", int(nmut), "")
	put("shred.allocs_per_node", ratio(c["rt.load.allocs"], c["load.nodes"]), "count", int(c["load.n"]), "")
	put("shred.rows_per_node", ratio(c["load.rows"], c["load.nodes"]), "ratio", int(c["load.n"]), "")
	put("bufpool.hit_ratio", ratio(c["query.bufpool.hits"], c["query.bufpool.hits"]+c["query.bufpool.misses"]), "ratio", int(nq), "")
	put("bufpool.misses_per_query", ratio(c["query.bufpool.misses"], nq), "count", int(nq), "")
	put("bufpool.evictions_per_query", ratio(c["query.bufpool.evictions"], nq), "count", int(nq), "")
	put("bufpool.flushes_per_checkpoint", ratio(c["checkpoint.bufpool.dirty_flushes"], c["checkpoint.n"]), "count", int(c["checkpoint.n"]), "")
	var appends, bytes, fsyncs float64
	for _, g := range []string{"insert", "delete", "edit"} {
		appends += c[g+".wal.appends"]
		bytes += c[g+".wal.append.bytes"]
		fsyncs += c[g+".wal.fsyncs"]
	}
	put("wal.appends_per_mutation", ratio(appends, nmut), "count", int(nmut), "")
	put("wal.bytes_per_mutation", ratio(bytes, nmut), "bytes", int(nmut), "")
	put("wal.fsyncs_per_mutation", ratio(fsyncs, nmut), "count", int(nmut), "")
	put("wal.replay_records_per_reopen", ratio(c["reopen.wal.replay.records"], c["reopen.n"]), "count", int(c["reopen.n"]), "")
	for _, kind := range []struct{ name, groups string }{
		{"query", "query"}, {"publish", "publish"}, {"update", "insert delete"}, {"edit", "edit"},
		{"load", "load"}, {"checkpoint", "checkpoint"}, {"reopen", "reopen"},
	} {
		var allocs, b, gc, n float64
		for _, g := range strings.Fields(kind.groups) {
			allocs += c["rt."+g+".allocs"]
			b += c["rt."+g+".bytes"]
			gc += c["rt."+g+".gc"]
			n += c["rt."+g+".n"]
		}
		put("runtime.allocs_per_op."+kind.name, ratio(allocs, n), "count", int(n), "")
		put("runtime.bytes_per_op."+kind.name, ratio(b, n), "bytes", int(n), "")
		put("runtime.gc_cycles_per_kop."+kind.name, ratio(1000*gc, n), "count", int(n), "")
	}

	// Per-layer times, from the spans of traced rounds.
	f := rec.floats
	put("xpath.parse_us", medianFloat(f["parse_us"]), "us", len(f["parse_us"]), "")
	put("sqldb.plan_us", medianFloat(f["plan_us"]), "us", len(f["plan_us"]), "")
	tq := c["trace.query.n"]
	put("translate.self_ms_per_query", ratio(c["trace.query.self_ms"], tq), "ms", int(tq), "")
	put("exec.sql_ms_per_query", ratio(c["trace.query.exec_ms"], tq), "ms", int(tq),
		fmt.Sprintf(" unreplayed_parameterized_statements=%g", c["trace.query.unreplayed"]))
	put("publish.ms_per_knode", ratio(c["trace.publish.ms_per_knode"], c["trace.publish.n"]), "ms", int(c["trace.publish.n"]), "")
	put("durable.integrity_ms", medianFloat(f["integrity_ms"]), "ms", len(f["integrity_ms"]), "")
	untraced := ratio(float64(rec.ops), rec.busy.Seconds())
	traced := ratio(float64(rec.tracedOps), rec.tracedBusy.Seconds())
	put("trace.overhead_pct", 100*ratio(untraced-traced, untraced), "%", rec.tracedOps,
		fmt.Sprintf(" untraced_ops_per_s=%.6g traced_ops_per_s=%.6g", untraced, traced))
	return out
}

// opsPerSecond is the timed phase's throughput with each operation's time
// replaced by its class median: operations ÷ Σ (class count × class
// median). A garbage-collection pause or a stall of the host then moves
// one sample of a class, not the run's throughput.
func opsPerSecond(lat map[string]classSamples) float64 {
	var n int
	var total time.Duration
	for _, classes := range lat {
		for _, s := range classes {
			n += len(s)
			total += time.Duration(len(s)) * median(s)
		}
	}
	return ratio(float64(n), total.Seconds())
}
