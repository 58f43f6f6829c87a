package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer of the program. Spans
// are recorded by the benchmark's own code around its calls; the program
// itself is not instrumented.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	// Start and End are nanoseconds since the run started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request opens the root span of one request: one operation on one store.
func (t *tracer) request(name, class string) int64 {
	if t == nil {
		return 0
	}
	t.req++
	return t.open(name, class, 0, t.req)
}

// open starts a span under parent and returns its id (0 when not tracing).
func (t *tracer) open(name, class string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Class: class, Start: now, End: now})
	return int64(len(t.spans))
}

func (t *tracer) close(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

func (t *tracer) reqOf(id int64) int64 {
	if t == nil || id == 0 {
		return 0
	}
	return t.spans[id-1].Req
}

// spanSelf is the summed self time of the spans of one name.
type spanSelf struct {
	n    int
	self time.Duration
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover.
func (t *tracer) selfTimes() map[string]spanSelf {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanSelf{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		e := out[s.Name]
		e.n++
		e.self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = e
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
