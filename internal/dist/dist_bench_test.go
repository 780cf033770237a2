package dist

import (
	"context"
	"fmt"
	"testing"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// Owner-map ablation (DESIGN.md design choice): routing policy determines
// per-rank storage balance. These benches report the load-imbalance ratio
// (max/ideal) as a custom metric alongside time.
func BenchmarkOwnerMapAblation(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 1))
	bb := gen.MustRMAT(gen.Graph500Params(5, 2))
	nC := a.NumVertices() * bb.NumVertices()
	owners := []struct {
		name string
		f    OwnerFunc
	}{
		{"bySource", OwnerBySource},
		{"byEdge", OwnerByEdge},
		{"byBlock", OwnerByBlock(nC)},
	}
	for _, o := range owners {
		b.Run(o.name, func(b *testing.B) {
			var imbalance float64
			for i := 0; i < b.N; i++ {
				res, err := Generate1D(a, bb, 8, o.f)
				if err != nil {
					b.Fatal(err)
				}
				ideal := float64(res.TotalStored()) / 8
				imbalance = float64(res.MaxRankStorage()) / ideal
			}
			b.ReportMetric(imbalance, "max/ideal")
		})
	}
}

// Owned (communication-free CSR) generation vs routed generation at the
// same block storage map — the Sec. III optimization ablation.
func BenchmarkOwnedVsRouted(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 3))
	bb := gen.MustRMAT(gen.Graph500Params(5, 4))
	nC := a.NumVertices() * bb.NumVertices()
	b.Run("routedBlock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Generate1D(a, bb, 8, OwnerByBlock(nC)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("owned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GenerateOwned(a, bb, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Sustained edge-generation rate of the blocked kernel across the rank
// sweep the scaling argument is about — the headline metric of this
// generator family (Sanders et al., Kepner et al.). Reports edges/s so
// regressions in the routed hot path show up as rate, not just ns/op.
func BenchmarkKernelRSweep(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 10))
	bb := gen.MustRMAT(gen.Graph500Params(5, 11))
	edges := a.NumArcs() * bb.NumArcs()
	for _, r := range []int{1, 4, 16, 32} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			b.SetBytes(edges * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Generate1D(a, bb, r, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkRoute isolates the Route stage: an RMAT 7⊗7 product (~3.3M
// arcs) expanded, routed and counted — a CountSink stores nothing, so
// the op is expansion plus routing plus the in-process exchange. It
// compares the two forms of the source hash: OwnerBySource, an OwnerFunc
// the shipper must call per edge (through OwnerFunc.Bind's wrapper), and
// the pre-bound, source-keyed sourceHashOwner the store paths use, which
// routes one source run at a time. edges/s is the layer's rate.
func BenchmarkRoute(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(7, 12))
	bb := gen.MustRMAT(gen.Graph500Params(7, 13))
	edges := a.NumArcs() * bb.NumArcs()
	owners := []struct {
		name  string
		owner Owner
	}{
		{"ownerFunc", OwnerBySource},
		{"sourceRuns", sourceHashOwner{}},
	}
	for _, r := range []int{4, 16} {
		plan, err := Plan1D(a, bb, r)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range owners {
			b.Run(fmt.Sprintf("R=%d/%s", r, o.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink := &CountSink{}
					if _, err := Run(context.Background(), Config{Plan: plan, Owner: o.owner, Sink: sink}); err != nil {
						b.Fatal(err)
					}
					if sink.Total() != edges {
						b.Fatalf("counted %d edges, want %d", sink.Total(), edges)
					}
				}
				b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}

// Batch-size sweep of the routed kernel at a fixed rank count — the
// measurement behind DefaultBatchSize (README §Performance): too small
// pays per-message overhead, too large blows the staging working set.
func BenchmarkKernelBatchSize(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 10))
	bb := gen.MustRMAT(gen.Graph500Params(5, 11))
	edges := a.NumArcs() * bb.NumArcs()
	for _, batch := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			plan, err := Plan1D(a, bb, 16)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(edges * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink := NewMemorySink(16)
				sink.Hints = sourceHashLoads(a, bb, 16)
				cfg := Config{Plan: plan, Owner: sourceHashOwner{}, Sink: sink, BatchSize: batch}
				if _, err := Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Raw exchange throughput of the simulated transport, by cluster size:
// every rank sends `per` edges round-robin and drains its inbox.
func BenchmarkExchangeThroughput(b *testing.B) {
	for _, r := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			const per = 20_000
			b.SetBytes(int64(r) * per * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := NewCluster(r)
				if err != nil {
					b.Fatal(err)
				}
				err = c.Run(func(rk *Rank) error {
					var got int
					rk.Exchange(func(emit func(to int, e graph.Edge) bool) {
						for j := 0; j < per; j++ {
							emit(j%r, graph.Edge{U: int64(j), V: int64(rk.ID())})
						}
					}, func(e graph.Edge) {
						got++
					})
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
