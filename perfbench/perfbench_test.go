package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// tiny runs a workload at a small size for a fixed number of rounds, two
// cycles of its round pattern.
func tiny(t *testing.T, workload string, seed int64, trace bool) (*runner, map[string]measured) {
	t.Helper()
	w, _ := findWorkload(workload)
	cfg := config{workload: workload, seed: seed, trace: trace, work: t.TempDir(), items: 10, frames: 16, rounds: max(6, 2*w.cycle)}
	r, res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if r.rec.checkFailures > 0 {
		t.Errorf("%s: wrong results: %v", workload, r.rec.failures)
	}
	return r, measure(r, res)
}

// TestMetricsPresent runs every workload, untraced and traced, and checks
// that each metric BENCHMARK.json names is reported, finite and in its unit,
// and that every end-to-end metric is positive.
func TestMetricsPresent(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		for _, trace := range []bool{false, true} {
			_, got := tiny(t, w.Name, 3, trace)
			for _, m := range f.EndToEnd {
				g, ok := got[m.Name]
				if !ok || g.kind != endToEnd || g.unit != m.Unit || math.IsNaN(g.value) || math.IsInf(g.value, 0) || g.value <= 0 {
					t.Errorf("%s trace=%v: end-to-end %s = %+v, want a positive value in %s", w.Name, trace, m.Name, g, m.Unit)
				}
			}
			for _, m := range f.PerLayer {
				g, ok := got[m.Name]
				if !ok || g.kind != perLayer || g.unit != m.Unit || math.IsNaN(g.value) || math.IsInf(g.value, 0) {
					t.Errorf("%s trace=%v: per-layer %s = %+v, want a finite value in %s", w.Name, trace, m.Name, g, m.Unit)
				}
			}
			n := 0
			for _, m := range got {
				if m.kind != printOnly {
					n++
				}
			}
			if n != len(f.EndToEnd)+len(f.PerLayer) {
				t.Errorf("%s: %d metrics measured, BENCHMARK.json names %d", w.Name, n, len(f.EndToEnd)+len(f.PerLayer))
			}
		}
	}
}

// TestCountsRepeat checks that the counts the program computes
// deterministically repeat exactly for one seed.
func TestCountsRepeat(t *testing.T) {
	counts := []string{
		"update.rows_renumbered_per_insert", "update.index_probes_per_insert",
		"translate.statements_per_query", "wal.appends_per_mutation", "wal.bytes_per_mutation",
	}
	for _, w := range []string{"ordered_read", "ordered_edit", "paged_durable"} {
		r1, a := tiny(t, w, 5, false)
		r2, b := tiny(t, w, 5, false)
		if r1.rec.failed+r2.rec.failed > 0 {
			// A store rebuilt after the program's known paged checkpoint
			// defect renumbers its nodes, so its counts differ.
			t.Logf("%s: failures, counts not compared: %v %v", w, r1.rec.failures, r2.rec.failures)
			continue
		}
		for _, n := range counts {
			if a[n].value != b[n].value {
				t.Errorf("%s: %s = %v then %v for one seed", w, n, a[n].value, b[n].value)
			}
		}
	}
}

// TestSeedChangesInput checks that the seed, an argument of the benchmark,
// changes the generated documents the stores receive.
func TestSeedChangesInput(t *testing.T) {
	r1, _ := tiny(t, "ordered_read", 1, false)
	r2, _ := tiny(t, "ordered_read", 2, false)
	if r1.doc.String() == r2.doc.String() {
		t.Error("seeds 1 and 2 generated the same document")
	}
	r3, _ := tiny(t, "ordered_read", 1, false)
	if r1.doc.String() != r3.doc.String() {
		t.Error("seed 1 generated two different documents")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, _, err := run(config{workload: "nope", work: t.TempDir()}); err == nil {
		t.Error("unknown workload ran")
	}
}
