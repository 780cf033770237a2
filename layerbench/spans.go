package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call: a name, its parent span (-1 for a root) and
// its wall-clock interval in nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil *tracer is valid and records nothing, so the same code path runs
// with tracing on and off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover. Children may run concurrently (one per
// rank), so the covered part is the union of their intervals clipped to
// the parent — never more than the parent itself. Unclosed spans are
// ignored.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		covered := unionWithin(kids[i], s.Start, s.End)
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// unionWithin returns the total length of the union of ivs clipped to
// [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]int64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total, curLo, curHi int64
	for _, iv := range s {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi || curHi == curLo {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}
