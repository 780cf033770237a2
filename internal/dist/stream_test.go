package dist

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

func TestStreamMatchesProduct(t *testing.T) {
	a := gen.PrefAttach(12, 2, 3)
	b := gen.ER(9, 0.4, 4)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    int
		twoD bool
	}{
		{"1d-1", 1, false}, {"1d-4", 4, false}, {"2d-4", 4, true}, {"2d-7", 7, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var arcs []graph.Edge
			stats, err := Stream(context.Background(), a, b, tc.r, tc.twoD, 64, Recovery{},
				func(batch []graph.Edge) error {
					arcs = append(arcs, batch...)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			got, err := graph.New(want.NumVertices(), arcs)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatal("streamed arcs do not rebuild A ⊗ B")
			}
			if stats.EdgesGenerated != a.NumArcs()*b.NumArcs() {
				t.Errorf("EdgesGenerated = %d, want %d", stats.EdgesGenerated, a.NumArcs()*b.NumArcs())
			}
			if stats.EdgesRouted != stats.EdgesGenerated || stats.BytesSent != 16*stats.EdgesGenerated {
				t.Errorf("routing counters inconsistent: %+v", stats)
			}
		})
	}
}

func TestStreamEmitErrorStops(t *testing.T) {
	a := gen.ER(40, 0.3, 1)
	b := gen.ER(40, 0.3, 2)
	sentinel := errors.New("downstream full")
	calls := 0
	_, err := Stream(context.Background(), a, b, 4, false, 32, Recovery{}, func([]graph.Edge) error {
		calls++
		if calls >= 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
}

func TestStreamCancellation(t *testing.T) {
	a := gen.ER(40, 0.3, 5)
	b := gen.ER(40, 0.3, 6)
	ctx, cancel := context.WithCancel(context.Background())
	var got int64
	_, err := Stream(ctx, a, b, 3, true, 16, Recovery{}, func(batch []graph.Edge) error {
		got += int64(len(batch))
		if got > 100 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	total := a.NumArcs() * b.NumArcs()
	if got >= total {
		t.Errorf("cancellation did not stop the stream: saw %d of %d", got, total)
	}
}

func TestStreamBadRanks(t *testing.T) {
	a := gen.Ring(4)
	if _, err := Stream(context.Background(), a, a, 0, false, 0, Recovery{}, func([]graph.Edge) error { return nil }); err == nil {
		t.Error("r=0 should error")
	}
}

// streamWatchdog bounds each supervised stream case through its context,
// so a stalled stream fails in seconds instead of at the test binary's
// timeout.
const streamWatchdog = 5 * time.Second

// collectStream runs one stream under the watchdog context and returns
// its arcs; any error or leaked stream buffer fails the test.
func collectStream(t *testing.T, run func(ctx context.Context, emit func([]graph.Edge) error) (Stats, error)) ([]graph.Edge, Stats) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), streamWatchdog)
	defer cancel()
	var got []graph.Edge
	st, err := run(ctx, func(batch []graph.Edge) error {
		got = append(got, batch...)
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if st.OutstandingBufs != 0 {
		t.Fatalf("stream left %d buffers outstanding", st.OutstandingBufs)
	}
	return got, st
}

// assertSameArcs fails unless got is exactly want, arc for arc.
func assertSameArcs(t *testing.T, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d arcs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("arc %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestStreamSupervisedParity streams under kronserve's default recovery
// budget (one retry) with no faults armed. Every rank's sub-batch tail
// must reach the consumer before the teardown collective; a tail held
// back until the supervisor's finalize deadlocks the consumer against
// ranks blocked on their full channels. 1D streams are pinned to the
// serial enumeration (core.Chain.ArcsFrom); 2D streams to the
// unsupervised stream of the same layout.
func TestStreamSupervisedParity(t *testing.T) {
	ch, err := core.NewChain(gen.PrefAttach(16, 2, 91), gen.ER(9, 0.5, 92))
	if err != nil {
		t.Fatal(err)
	}
	total, err := ch.NumArcs()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 4, 16} {
		for _, twoD := range []bool{false, true} {
			var ref []graph.Edge
			if twoD {
				ref = chainStreamRef(t, ch, r, true)
			}
			for _, w := range []struct{ off, limit int64 }{{0, -1}, {total / 3, total / 2}} {
				name := fmt.Sprintf("r%d-%s-off%d", r, map[bool]string{false: "1d", true: "2d"}[twoD], w.off)
				t.Run(name, func(t *testing.T) {
					n := total - w.off
					if w.limit >= 0 && w.limit < n {
						n = w.limit
					}
					var want []graph.Edge
					if twoD {
						want = ref[w.off : w.off+n]
					} else if _, err := ch.ArcsFrom(w.off, func(u, v int64) bool {
						want = append(want, graph.Edge{U: u, V: v})
						return int64(len(want)) < n
					}); err != nil {
						t.Fatal(err)
					}
					got, _ := collectStream(t, func(ctx context.Context, emit func([]graph.Edge) error) (Stats, error) {
						return StreamChainFrom(ctx, ch, r, twoD, 16, w.off, w.limit, Recovery{MaxRetries: 1}, emit)
					})
					assertSameArcs(t, got, want)
				})
			}
		}
	}
}

// TestStreamChaosRecovers crashes one rank per supervised stream, mid
// expansion or in the teardown collective, and requires the recovered
// stream to deliver the unsupervised stream exactly once. The collective
// crash comes after every tile is committed, so the replay hands each
// rank zero tiles: a tail that was not flushed before the crash can only
// move at the replay's end-of-attempt flush.
func TestStreamChaosRecovers(t *testing.T) {
	ch, err := core.NewChain(gen.PrefAttach(16, 2, 93), gen.ER(9, 0.5, 94))
	if err != nil {
		t.Fatal(err)
	}
	for pi, point := range []FaultPoint{FaultMidExpansion, FaultInCollective} {
		for _, r := range []int{2, 4} {
			for _, twoD := range []bool{false, true} {
				name := fmt.Sprintf("%s/r%d-%s", point, r, map[bool]string{false: "1d", true: "2d"}[twoD])
				t.Run(name, func(t *testing.T) {
					want := chainStreamRef(t, ch, r, twoD)
					plan, err := sliceForChain(ch, r, twoD, 0, -1)
					if err != nil {
						t.Fatal(err)
					}
					crash := CrashSpec{Rank: r - 1, Point: point}
					if point == FaultMidExpansion {
						rank, work := plannedWork(plan)
						crash.Rank, crash.After = rank, work/2
					}
					cfg := Config{
						Plan:      plan,
						BatchSize: 16,
						Faults:    &FaultPlan{Seed: int64(400 + pi), Crashes: []CrashSpec{crash}},
						Recovery:  Recovery{MaxRetries: 1, Backoff: time.Millisecond},
					}
					got, st := collectStream(t, func(ctx context.Context, emit func([]graph.Edge) error) (Stats, error) {
						return stream(ctx, cfg, emit)
					})
					assertSameArcs(t, got, want)
					if st.RecoveredRuns != 1 || st.RetriesPerRank[crash.Rank] != 1 {
						t.Fatalf("crash of rank %d not recovered: RecoveredRuns=%d RetriesPerRank=%v",
							crash.Rank, st.RecoveredRuns, st.RetriesPerRank)
					}
				})
			}
		}
	}
}
