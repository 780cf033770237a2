package dist

// Cross-path equivalence for the blocked expansion/routing kernel: every
// engine configuration — 1D and 2D plans, two-factor and k=3 chains,
// routed (hash and block owner maps, per-edge OwnerFunc and source-keyed
// run routing) and unrouted sinks, factors with and without full self
// loops, batch sizes down to 1 — must emit exactly the edge multiset of
// the per-edge reference generator (core.StreamProduct for two factors,
// core.Chain.Arcs for deeper chains). The kernel reorders work (blocks,
// radix partitions, source runs, batch flushes) but may never change
// what is generated; this test is the property pinning that.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// referenceArcs collects the product edge multiset from the per-edge
// reference path the paper's Sec. II describes and the kernel replaced:
// core.StreamProduct for a factor pair, the recursive core.Chain.Arcs
// enumeration for deeper chains.
func referenceArcs(ch *core.Chain) []graph.Edge {
	var arcs []graph.Edge
	add := func(u, v int64) bool {
		arcs = append(arcs, graph.Edge{U: u, V: v})
		return true
	}
	if fs := ch.Factors(); len(fs) == 2 {
		core.StreamProduct(fs[0], fs[1], add)
	} else {
		ch.Arcs(add)
	}
	return arcs
}

// kernelChain is one factor set of the equivalence sweeps.
type kernelChain struct {
	name string
	ch   *core.Chain
}

// kernelChains are the factor sets of the equivalence sweeps: factor
// pairs with and without full self loops, plus one k=3 chain whose
// deeper tail routes through core.TailCursor blocks. Innermost degrees
// exceed the small batch sizes, so source runs split at batch limits.
func kernelChains(t *testing.T) []kernelChain {
	t.Helper()
	chain := func(name string, factors ...*graph.Graph) kernelChain {
		ch, err := core.NewChain(factors...)
		if err != nil {
			t.Fatal(err)
		}
		return kernelChain{name, ch}
	}
	return []kernelChain{
		chain("er_x_ba", gen.ER(7, 0.5, 401), gen.PrefAttach(6, 2, 402)),
		chain("loops_x_rmat", gen.ER(5, 0.6, 403).WithFullSelfLoops(), gen.MustRMAT(gen.Graph500Params(3, 404))),
		chain("rmat_x_loops", gen.MustRMAT(gen.Graph500Params(3, 405)), gen.PrefAttach(5, 2, 406).WithFullSelfLoops()),
		chain("ba_x_er_x_rmat", gen.PrefAttach(5, 2, 407), gen.ER(4, 0.6, 408), gen.MustRMAT(gen.Graph500Params(3, 409))),
	}
}

// TestKernelEquivalence sweeps the engine matrix against the per-edge
// reference. Batch sizes include 1 (every edge flushes — maximal message
// count, every tile-boundary and threshold path taken) and small odd
// values that misalign batches with blocks, source runs and tiles.
func TestKernelEquivalence(t *testing.T) {
	owners := []struct {
		name  string
		owner func(nC int64) Owner
	}{
		{"unrouted", func(int64) Owner { return nil }},
		{"byEdge", func(int64) Owner { return OwnerByEdge }},
		{"bySourceFunc", func(int64) Owner { return OwnerBySource }},
		{"sourceHash", func(int64) Owner { return sourceHashOwner{} }},
		{"blockBound", func(nC int64) Owner { return BlockOwner{NC: nC} }},
	}
	for _, f := range kernelChains(t) {
		want, err := graph.New(f.ch.NumVertices(), referenceArcs(f.ch))
		if err != nil {
			t.Fatal(err)
		}
		for _, twoD := range []bool{false, true} {
			for _, o := range owners {
				for _, batch := range []int{1, 3, 5, DefaultBatchSize} {
					f, twoD, o, batch := f, twoD, o, batch
					name := fmt.Sprintf("%s_%s_%s_batch%d", f.name,
						map[bool]string{false: "1d", true: "2d"}[twoD], o.name, batch)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						const r = 3
						plan, err := planForChain(f.ch, r, twoD)
						if err != nil {
							t.Fatal(err)
						}
						ms := NewMemorySink(r)
						cfg := Config{Plan: plan, Sink: ms, BatchSize: batch,
							Owner: o.owner(plan.NC)}
						if _, err := Run(context.Background(), cfg); err != nil {
							t.Fatal(err)
						}
						assertExact(t, plan.NC, mergedArcs(ms), want)
					})
				}
			}
		}
	}
}

// substreamSink records, per destination rank, every delivered batch of
// every tile in arrival order — the per-(tile, destination) substreams
// prefix-dedup recovery and the epoch fence depend on.
type substreamSink struct {
	ranks []substreamRankSink // ranks[dest][tile] = batches
}

func (s *substreamSink) Rank(rk *Rank) (RankSink, error) {
	m := substreamRankSink{}
	s.ranks[rk.ID()] = m
	return m, nil
}

type substreamRankSink map[int][][]graph.Edge

func (m substreamRankSink) Store(graph.Edge) error {
	return errors.New("substreamRankSink: per-edge Store called; the engine must deliver tile-framed batches")
}

func (m substreamRankSink) StoreTileBlock(tile int, edges []graph.Edge) (int64, error) {
	m[tile] = append(m[tile], append([]graph.Edge(nil), edges...))
	return int64(len(edges)), nil
}

func (m substreamRankSink) Close() error { return nil }

// TestRouteSubstreamEquivalence pins the run router to the per-edge
// router batch for batch, not just as a multiset: for every
// (tile, destination), the source-keyed sourceHashOwner must deliver the
// same sequence of batches — same lengths, same contents — as
// OwnerBySource, the OwnerFunc form of the same hash, which routes one
// edge at a time. Batch 1 and 3 split most source runs at the batch
// limit; 1024 spans many runs per batch.
func TestRouteSubstreamEquivalence(t *testing.T) {
	if _, ok := Owner(sourceHashOwner{}).(sourceKeyed); !ok {
		t.Fatal("sourceHashOwner is not source-keyed: the run router is not under test")
	}
	if _, ok := Owner(OwnerBySource).(sourceKeyed); ok {
		t.Fatal("OwnerBySource is source-keyed: the per-edge reference is not under test")
	}
	chains := kernelChains(t)
	for _, f := range []int{0, 3} { // a factor pair and the k=3 chain
		f := chains[f]
		for _, twoD := range []bool{false, true} {
			for _, batch := range []int{1, 3, DefaultBatchSize} {
				f, twoD, batch := f, twoD, batch
				name := fmt.Sprintf("%s_%s_batch%d", f.name,
					map[bool]string{false: "1d", true: "2d"}[twoD], batch)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					const r = 3
					plan, err := planForChain(f.ch, r, twoD)
					if err != nil {
						t.Fatal(err)
					}
					record := func(owner Owner) []substreamRankSink {
						sink := &substreamSink{ranks: make([]substreamRankSink, r)}
						cfg := Config{Plan: plan, Owner: owner, Sink: sink, BatchSize: batch}
						if _, err := Run(context.Background(), cfg); err != nil {
							t.Fatal(err)
						}
						return sink.ranks
					}
					perEdge, byRun := record(OwnerBySource), record(sourceHashOwner{})
					var arcs int64
					for dest := range perEdge {
						for tile, batches := range perEdge[dest] {
							for _, b := range batches {
								arcs += int64(len(b))
							}
							if !reflect.DeepEqual(byRun[dest][tile], batches) {
								t.Fatalf("dest %d tile %d: run router delivered %d batches, per-edge router %d (or contents differ)",
									dest, tile, len(byRun[dest][tile]), len(batches))
							}
						}
						if len(byRun[dest]) != len(perEdge[dest]) {
							t.Fatalf("dest %d: run router delivered %d tiles, per-edge router %d",
								dest, len(byRun[dest]), len(perEdge[dest]))
						}
					}
					if want, _ := f.ch.NumArcs(); arcs != want {
						t.Fatalf("substreams hold %d arcs, want %d", arcs, want)
					}
				})
			}
		}
	}
}

// TestRecoverKernelOddBatchSoak replays the supervised-recovery contract
// on the blocked kernel with batch sizes that misalign with tiles and
// blocks (including 1): a mid-expansion crash plus a permanently lost
// batch must still yield the exact reference edge set, because prefix
// deduplication counts edges — it must hold for any batch framing of the
// per-(tile, destination) substreams.
func TestRecoverKernelOddBatchSoak(t *testing.T) {
	a := gen.ER(7, 0.5, 411).WithFullSelfLoops()
	b := gen.PrefAttach(6, 2, 412)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, 7} {
		for _, twoD := range []bool{false, true} {
			batch, twoD := batch, twoD
			name := fmt.Sprintf("batch%d_%s", batch, map[bool]string{false: "1d", true: "2d"}[twoD])
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				const r = 3
				plan, err := planFor(a, b, r, twoD)
				if err != nil {
					t.Fatal(err)
				}
				rank, work := plannedWork(plan)
				ms := NewMemorySink(r)
				var st Stats
				runErr := runWithWatchdog(t, chaosWatchdog, func() error {
					var err error
					st, err = Run(context.Background(), Config{
						Plan: plan, Owner: OwnerByEdge, Sink: ms, BatchSize: batch,
						Faults: &FaultPlan{
							Seed:      int64(420 + batch),
							Crashes:   []CrashSpec{{Rank: rank, Point: FaultMidExpansion, After: work / 2}},
							LoseAfter: 1, LoseDeliveries: 1,
						},
						Recovery: Recovery{MaxRetries: 3, Backoff: time.Millisecond},
					})
					return err
				})
				if runErr != nil {
					t.Fatalf("supervised run failed despite retry budget: %v", runErr)
				}
				assertExact(t, plan.NC, mergedArcs(ms), want)
				if st.TotalRetries() == 0 {
					t.Fatal("faults injected but no retry recorded")
				}
				if st.OutstandingBufs != 0 {
					t.Fatalf("recovered run leaked %d pooled buffers", st.OutstandingBufs)
				}
			})
		}
	}
}
