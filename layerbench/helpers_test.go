package main

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.m || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%v: q1=%v median=%v q3=%v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestP99NeedsTenSamplesBeyondIt(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := p99(xs); ok {
		t.Error("999 samples leave only 9 beyond p99; it must not be reported")
	}
	xs = append(xs, 1000)
	v, ok := p99(xs)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v (ok=%v), want 990 with 10 samples beyond", v, ok)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "run", Parent: -1, Start: 0, End: 100},
		// Two concurrent children overlapping on [20,30]: they cover
		// [10,40] = 30, not 20+20 = 40.
		{Name: "store", Parent: 0, Start: 10, End: 30},
		{Name: "store", Parent: 0, Start: 20, End: 40},
		// A child running past its parent only covers up to the parent.
		{Name: "store", Parent: 0, Start: 90, End: 120},
		{Name: "open", Parent: -1, Start: 5, End: -1},
	}
	got := selfTimes(spans)
	if got["run"] != 60 {
		t.Errorf("run self time = %v, want 100-30-10 = 60", got["run"])
	}
	if got["store"] != 20+20+30 {
		t.Errorf("store self time = %v, want 70", got["store"])
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span must not be counted")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", -1))
	if tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
}

func testChain(t *testing.T) *core.Chain {
	t.Helper()
	a := gen.MustRMAT(gen.Graph500Params(4, 1))
	b := gen.MustRMAT(gen.Graph500Params(4, 2))
	ch, err := core.NewChain(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func arcsOf(ch *core.Chain) []graph.Edge {
	var out []graph.Edge
	ch.Arcs(func(u, v int64) bool {
		out = append(out, graph.Edge{U: u, V: v})
		return true
	})
	return out
}

func TestStreamCheckAcceptsEveryPrefixAndCatchesReorder(t *testing.T) {
	ch := testChain(t)
	arcs := arcsOf(ch)
	ref := newStreamRef(ch, 64)
	for _, cut := range []int{0, 1, 63, 64, 65, len(arcs) / 2, len(arcs)} {
		c := ref.check()
		for _, e := range arcs[:cut] {
			if err := c.add(e.U, e.V); err != nil {
				t.Fatalf("prefix %d: %v", cut, err)
			}
		}
		if n, err := c.finish(); err != nil || n != int64(cut) {
			t.Fatalf("prefix %d: verified %d, %v", cut, n, err)
		}
	}
	// Swap two arcs inside the last partial block: only finish sees it.
	bad := append([]graph.Edge(nil), arcs[:70]...)
	bad[66], bad[67] = bad[67], bad[66]
	c := ref.check()
	for _, e := range bad {
		if err := c.add(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.finish(); !errors.Is(err, errMismatch) {
		t.Errorf("reordered tail: %v, want a mismatch", err)
	}
	// Swap inside a full block: add sees it at the checkpoint.
	bad = append([]graph.Edge(nil), arcs...)
	bad[3], bad[4] = bad[4], bad[3]
	c = ref.check()
	var err error
	for _, e := range bad {
		if err = c.add(e.U, e.V); err != nil {
			break
		}
	}
	if !errors.Is(err, errMismatch) {
		t.Errorf("reordered block: %v, want a mismatch", err)
	}
}

func TestWindowCheck(t *testing.T) {
	ch := testChain(t)
	arcs := arcsOf(ch)
	var w windowCheck
	if err := w.reset(ch, 100, 10); err != nil {
		t.Fatal(err)
	}
	for _, e := range arcs[100:110] {
		if err := w.add(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.add(arcs[110].U, arcs[110].V); !errors.Is(err, errMismatch) {
		t.Errorf("arc past the window: %v, want a mismatch", err)
	}
	if err := w.reset(ch, 100, 10); err != nil {
		t.Fatal(err)
	}
	if err := w.add(arcs[101].U, arcs[101].V); !errors.Is(err, errMismatch) {
		t.Errorf("wrong first arc: %v, want a mismatch", err)
	}
	if err := w.reset(ch, int64(len(arcs))-3, 10); err != nil || w.arcs() != 3 {
		t.Errorf("window at the end holds %d arcs (%v), want 3", w.arcs(), err)
	}
}

func TestDrawWindowStaysInsideOneRank(t *testing.T) {
	ch := testChain(t)
	ranges, err := rankRanges(ch, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 3 || ranges[0][0] != 0 || ranges[2][1] != int64(len(arcsOf(ch))) {
		t.Fatalf("rank ranges %v do not cover the stream of %d arcs", ranges, len(arcsOf(ch)))
	}
	rng := rand.New(rand.NewSource(1))
	hit := map[int]bool{}
	for i := 0; i < 2000; i++ {
		off := drawWindow(rng, ranges, 50)
		inside := false
		for r, rr := range ranges {
			if rr[0] <= off && off+50 <= rr[1] {
				inside, hit[r] = true, true
			}
		}
		if !inside {
			t.Fatalf("window [%d,%d) crosses a rank boundary of %v", off, off+50, ranges)
		}
	}
	if len(hit) != 3 {
		t.Errorf("windows fell in ranks %v, want all three", hit)
	}
	// 6 offsets fit 5 arcs into [0,10), and 1 fits them into [10,15).
	if n := windowOffsets([][2]int64{{0, 10}, {10, 15}}, 5); n != 6+1 {
		t.Errorf("windowOffsets = %d, want 7", n)
	}
	if _, err := rankRanges(ch, 3, int64(len(arcsOf(ch)))); err == nil {
		t.Error("a span longer than every rank's range must be refused")
	}
}

func TestParseArcLine(t *testing.T) {
	u, v, err := parseArcLine([]byte(`{"u":12,"v":345}`))
	if err != nil || u != 12 || v != 345 {
		t.Errorf("got %d %d %v", u, v, err)
	}
	for _, bad := range []string{`{"u":1}`, `{"u":x,"v":2}`, `{"v":1,"u":2}`, ``} {
		if _, _, err := parseArcLine([]byte(bad)); !errors.Is(err, errMismatch) {
			t.Errorf("%q: %v, want a mismatch", bad, err)
		}
	}
}

func TestCheckStore(t *testing.T) {
	ch := testChain(t)
	ref := newStoreRef(ch)
	write := func(drop bool) string {
		dir := t.TempDir()
		w, err := store.NewWriter(dir, ch.NumVertices(), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		first := true
		ch.Arcs(func(u, v int64) bool {
			if drop && first {
				first = false
				u, v = v, u+1 // same count, wrong content
			}
			if err := w.Append(u, v); err != nil {
				t.Fatal(err)
			}
			return true
		})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	if err := checkStore(write(false), ref); err != nil {
		t.Errorf("complete store: %v", err)
	}
	if err := checkStore(write(true), ref); !errors.Is(err, errMismatch) {
		t.Errorf("corrupted store: %v, want a mismatch", err)
	}
	dir := write(false)
	if err := os.Truncate(filepath.Join(dir, "shard-0001"), 16); err != nil {
		t.Fatal(err)
	}
	if err := checkStore(dir, ref); !errors.Is(err, errMismatch) {
		t.Errorf("truncated shard: %v, want a mismatch", err)
	}
}

func TestMetricsFrom(t *testing.T) {
	got := metricsFrom("# TYPE x counter\nkronserve_cache_hits_total 3\nkronserve_cache_misses_total 1\nkronserve_admission_rejected_total 2\n")
	if got["serve.cache_hit_ratio"].Value != 0.75 || got["serve.admission_rejected"].Value != 2 {
		t.Errorf("got %+v", got)
	}
}

func TestReportCountsMismatchAsIncorrect(t *testing.T) {
	r := newReport()
	r.op(nil)
	r.op(errors.New("deadline expired"))
	if !r.correct || r.attempted != 2 || r.failed != 1 {
		t.Errorf("after a timeout: correct=%v attempted=%d failed=%d", r.correct, r.attempted, r.failed)
	}
	r.op(mismatch("wrong arc"))
	if r.correct || r.failed != 2 {
		t.Errorf("after a mismatch: correct=%v failed=%d", r.correct, r.failed)
	}
}
