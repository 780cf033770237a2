package dist

import (
	"context"
	"fmt"
	"sync/atomic"

	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// DefaultStreamBatch is the batch size Stream uses when the caller passes
// batch ≤ 0: large enough to amortize channel traffic, small enough to
// keep cancellation latency and per-rank buffering low.
const DefaultStreamBatch = 1024

// Stream runs the Sec. III generator (1D partitioning, or Rem. 1's 2D
// grid with twoD) on r concurrent expander ranks and delivers every
// generated product arc of C = A ⊗ B to emit in batches. It is the
// engine run with the single-consumer streaming sink: instead of routing
// edges to per-rank storage, all ranks feed one consumer — kronserve's
// HTTP response writer — so memory stays O(r·batch) no matter how large
// |E_C| is.
//
// emit is called from a single goroutine (Stream's caller), in the
// plan's deterministic stream order (see StreamChainFrom); the batch
// slice is recycled after emit returns and must not be retained. Stream
// stops early when ctx is cancelled or emit returns an error; either way
// the expander ranks are torn down before Stream returns — every failure
// mode completes or errors, never hangs (see DESIGN.md §3a, "Failure
// semantics"). Stats counters follow the Generate* conventions, with
// every delivered edge accounted as routed traffic to the consumer.
//
// rec arms the run supervisor (see Recovery); the zero value streams
// unsupervised. Because the stream sink holds undelivered edges in the
// per-rank batch buffer across attempts and the fenced sinks suppress
// replayed prefixes, a recovered stream delivers every edge exactly once.
func Stream(ctx context.Context, a, b *graph.Graph, r int, twoD bool, batch int, rec Recovery, emit func([]graph.Edge) error) (Stats, error) {
	ch, err := core.NewChain(a, b)
	if err != nil {
		return Stats{}, err
	}
	return StreamChain(ctx, ch, r, twoD, batch, rec, emit)
}

// StreamChain is Stream over a factor chain A₁⊗…⊗Aₖ — the /gen serving
// path at any chain depth, with the same exactly-once recovery
// semantics. It is StreamChainFrom at offset 0 with no limit.
func StreamChain(ctx context.Context, ch *core.Chain, r int, twoD bool, batch int, rec Recovery, emit func([]graph.Edge) error) (Stats, error) {
	return StreamChainFrom(ctx, ch, r, twoD, batch, 0, -1, rec, emit)
}

// StreamChainFrom streams a contiguous range of the chain product's
// deterministic edge stream: limit arcs (< 0 = through the end) starting
// at global arc offset. The skipped prefix is never generated — the
// plan is sliced up front (Plan.Slice locates the start tile and
// in-tile position in O(tiles) from closed-form arc counts) and each
// boundary rank starts mid-tile via the kernel's windowed expansion.
//
// The stream order is canonical and reproducible: tiles in ascending
// plan-ID order, each tile's edges in the kernel's fixed expansion
// order. Under 1D partitioning this equals the serial chain enumeration
// (core.Chain.Arcs) regardless of r; under 2D it is the deterministic
// tile-grid order for that (layout, r). Identical (chain, layout, r,
// offset) always yield the identical byte stream — the property HTTP
// Range/resume-token serving depends on.
//
// Recovery.Reassign is forced off: ordered delivery pins each tile to
// its planned rank, so recovery respawns the crashed rank's assignment
// instead of moving tiles (exactly-once fencing is unaffected).
func StreamChainFrom(ctx context.Context, ch *core.Chain, r int, twoD bool, batch int, offset, limit int64, rec Recovery, emit func([]graph.Edge) error) (Stats, error) {
	if r < 1 {
		return Stats{}, fmt.Errorf("dist: stream needs ≥ 1 rank, got %d", r)
	}
	if batch <= 0 {
		batch = DefaultStreamBatch
	}
	plan, err := sliceForChain(ch, r, twoD, offset, limit)
	if err != nil {
		return Stats{}, err
	}
	rec.Reassign = false
	return stream(ctx, Config{Plan: plan, Recovery: rec, BatchSize: batch}, emit)
}

// stream runs cfg with the ordered stream sink and feeds emit on the
// calling goroutine; cfg.Sink is set here. It is StreamChainFrom after
// validation and plan slicing, split out so the chaos suite can arm
// cfg.Faults on a stream.
func stream(ctx context.Context, cfg Config, emit func([]graph.Edge) error) (Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	plan := cfg.Plan
	sink := newStreamSink(ctx, cfg.batchSize(), plan.R)
	cfg.Sink = sink
	var st Stats
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		st, runErr = Run(ctx, cfg)
		for _, c := range sink.chans {
			close(c)
		}
	}()

	// The consumer walks tiles in global ID order, pulling each tile's
	// batches from its owning rank's channel until the tile's closed-form
	// arc count is satisfied. Per-rank FIFO delivery plus ID-increasing
	// per-rank tile lists guarantee the next batch on the needed channel
	// belongs to the needed tile; the check stays as a loud invariant.
	// Every rank flushes its tail to its channel before the attempt's
	// teardown collective (see streamRankSink.flushTail), so a closed
	// channel means the rank delivers nothing more for this stream.
	type tileRef struct {
		id     int
		rank   int
		expect int64
	}
	var order []tileRef
	for rank, tiles := range plan.Tiles {
		for _, t := range tiles {
			if n := t.Arcs(); n > 0 {
				order = append(order, tileRef{id: t.ID, rank: rank, expect: n})
			}
		}
	}
	for i := 1; i < len(order); i++ { // insertion merge of per-rank sorted runs
		for j := i; j > 0 && order[j].id < order[j-1].id; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	var emitErr error
consume:
	for _, tr := range order {
		for got := int64(0); got < tr.expect; {
			b, ok := <-sink.chans[tr.rank]
			if !ok {
				break consume // the stream ended early (error or cancel)
			}
			if b.tile != tr.id {
				emitErr = fmt.Errorf("dist: stream order violated: got tile %d, want %d", b.tile, tr.id)
				cancel()
				sink.recycle(b.edges)
				break consume
			}
			got += int64(len(b.edges))
			if emitErr != nil || ctx.Err() != nil {
				sink.recycle(b.edges)
				continue
			}
			err := emit(b.edges)
			// Recycle unconditionally — the emit-error path must return
			// the batch to the pool too, or the buffer leaks.
			sink.recycle(b.edges)
			if err != nil {
				emitErr = err
				cancel()
			}
		}
	}
	// Drain so expander ranks blocked on a flush can exit; every leftover
	// batch goes back to the pool.
	for _, c := range sink.chans {
		for b := range c {
			sink.recycle(b.edges)
		}
	}
	<-done

	// The engine's transport counters are idle here (no Owner routing);
	// delivery to the consumer is the stream's communication.
	st.Messages = atomic.LoadInt64(&sink.messages)
	st.EdgesRouted = atomic.LoadInt64(&sink.routed)
	st.BytesSent = atomic.LoadInt64(&sink.bytes)
	// Leak probe: the stream sink pools its own buffers (separate from the
	// cluster's exchange pool); fold its balance into the run's counter.
	st.OutstandingBufs += atomic.LoadInt64(&sink.outstanding)
	switch {
	case emitErr != nil:
		return st, emitErr
	case context.Cause(ctx) != nil:
		return st, context.Cause(ctx)
	default:
		return st, runErr
	}
}
