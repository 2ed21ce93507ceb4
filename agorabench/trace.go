package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one ask
// share Ask; Parent is the id of the enclosing span (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Ask     int64  `json:"ask"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	last  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent recorded later.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent, ask int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Ask: ask, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// child records a finished span with a fresh id and returns it.
func (t *tracer) child(parent, ask int64, name string, start, end time.Time) int64 {
	id := t.id()
	t.record(id, parent, ask, name, start, end)
	return id
}

// selfTimes returns, per span, its duration minus the part of its interval
// its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, c := range cs {
			lo, hi := max(c.StartNs, reach), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// spanTable renders, per span name, the count and the median total and
// self time.
func spanTable(spans []span) string {
	self := selfTimes(spans)
	type agg struct{ total, self []float64 }
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.total = append(a.total, float64(s.EndNs-s.StartNs)/1e3)
		a.self = append(a.self, float64(self[s.ID])/1e3)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %14s %14s\n", "span", "count", "p50 total us", "p50 self us")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(&b, "%-28s %8d %14.1f %14.1f\n", n, len(a.total), median(a.total), median(a.self))
	}
	return b.String()
}

// budgetRow is one line of the per-layer ask budget.
type budgetRow struct {
	layer, metric string
	us            float64
}

// budgetTable renders the per-layer self-time budget of one ask against the
// traced ask p50.
func budgetTable(workload string, askP50us float64, rows []budgetRow, overhead float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ask budget, %s (traced ask p50 %.1f us)\n", workload, askP50us)
	fmt.Fprintf(&b, "%-10s %-28s %12s %8s\n", "layer", "metric", "self us", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-28s %12.1f %7.1f%%\n", r.layer, r.metric, r.us, 100*ratio(r.us, askP50us))
	}
	fmt.Fprintf(&b, "harness.trace_overhead_frac %.4f\n", overhead)
	return b.String()
}

// writeTrace stores the spans as JSON lines and the tables beside them,
// and prints the tables.
func writeTrace(cfg *config, t *tracer, tables string, out io.Writer) error {
	dir := mustMkdir(outDir)
	base := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d", cfg.workload, cfg.seed))
	f, err := os.Create(base + ".jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	all := tables + "\n" + spanTable(spans)
	if err := os.WriteFile(base+".table.txt", []byte(all), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\nspans: %s.jsonl (%d spans)\n", all, base, len(spans))
	return nil
}
