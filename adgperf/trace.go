package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps benchmark-side spans around the public calls in memory and
// writes them out when the run ends. Spans of one request share their root's
// ID through Parent.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// span records one span and returns its ID (parent 0 is a root).
func (t *tracer) span(parent int64, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(),
		End:   end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize prints, per span name, the count, total time and self time (the
// span's duration minus the part its children cover).
func (t *tracer) summarize(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64) // parent ID → nanoseconds covered by children
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	by := make(map[string]*agg)
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - child[s.ID]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-18s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-18s %8d %12.1f %12.1f\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
