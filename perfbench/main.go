// Command perfbench is the ordxml benchmark. It runs one workload for a
// fixed time against three stores, one per order encoding, checks every
// result against an oracle, and prints each metric by name with its unit
// and sample count. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// alternates untraced and traced rounds and reports the per-layer ones.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload ordered_read --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ordered_read, ordered_edit or paged_durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 to report per-layer metrics from a traced run")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "perfbench"), "directory for stores and spans")
	setupOnly := flag.Bool("setup-only", false, "time one set-up and print it with its failures as JSON")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if *setupOnly {
		cfg.setupOnly = true
		r, res, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		b, _ := json.Marshal(setupResult{Nanoseconds: res.setups[0].Nanoseconds(), Attempted: r.rec.attempted,
			Failed: r.rec.failed, Wrong: r.rec.checkFailures, Failures: r.rec.failures})
		fmt.Println(string(b))
		return
	}
	// Set-up is timed in extraSetups child processes as well as in this
	// one, each the first set-up of its process: closed paged stores are
	// never freed, so set-ups repeated in this process would leave their
	// stores on the heap of the timed phase.
	var children []setupResult
	for i := 0; i < extraSetups; i++ {
		c, err := childSetup(os.Args[1:])
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up process:", err)
			os.Exit(1)
		}
		children = append(children, c)
	}
	r, res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The children's warm passes are operations too, and can hit the
	// known paged defect.
	for _, c := range children {
		res.setups = append(res.setups, time.Duration(c.Nanoseconds))
		r.rec.attempted += c.Attempted
		r.rec.failed += c.Failed
		r.rec.checkFailures += c.Wrong
		for _, f := range c.Failures {
			r.note("set-up process: " + f)
		}
	}
	report(os.Stdout, r, res)
}

// setupResult is what a set-up-only child process reports.
type setupResult struct {
	Nanoseconds              int64
	Attempted, Failed, Wrong int
	Failures                 []string
}

// extraSetups is the number of set-up-only child processes; setup_s is the
// median over them and the run's own set-up.
const extraSetups = 4

// childSetup runs this program with -setup-only and returns what it
// reports.
func childSetup(args []string) (setupResult, error) {
	cmd := exec.Command(os.Args[0], append(args, "-setup-only")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupResult{}, err
	}
	var c setupResult
	if err := json.Unmarshal(out, &c); err != nil {
		return setupResult{}, fmt.Errorf("parse %q: %w", out, err)
	}
	return c, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of the benchmark's output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func report(w *os.File, r *runner, res *result) {
	all := measure(r, res)
	out := output{
		Correct:   r.rec.checkFailures == 0,
		Attempted: r.rec.attempted,
		Failed:    r.rec.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(w, "workload %s seed=%d items_per_region=%d nodes=%d xml_bytes=%d pool_frames=%d pages=%v loop=closed clients=1\n",
		r.cfg.workload, r.cfg.seed, r.cfg.items, r.doc.root.Size(), len(r.doc.String()), r.frames, res.pages)
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := all[n]
		fmt.Fprintf(w, "metric %-40s %14.6g %-6s samples=%d%s\n", n, m.value, m.unit, m.samples, m.note)
		if (m.kind == endToEnd && !r.cfg.trace) || (m.kind == perLayer && r.cfg.trace) {
			out.Metrics[n] = metric{Value: m.value, Unit: m.unit}
		}
	}
	var groups []string
	for g := range r.rec.lat {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		classes := r.rec.lat[g]
		var cs []string
		for c := range classes {
			cs = append(cs, c)
		}
		sort.Strings(cs)
		for _, c := range cs {
			fmt.Fprintf(w, "class %-28s median_ms=%.4f samples=%d\n", c, ms(median(classes[c])), len(classes[c]))
		}
	}
	if r.spans != nil {
		self := r.spans.selfTimes()
		var names []string
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "span %-24s spans=%d self_ms=%.3f\n", n, self[n].n, ms(self[n].self))
		}
	}
	fmt.Fprintf(w, "failures %d listed %d\n", r.rec.failureCount, len(r.rec.failures))
	for _, f := range r.rec.failures {
		fmt.Fprintln(w, "failure", f)
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}
