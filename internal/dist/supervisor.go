package dist

// Run supervision: bounded-retry recovery for engine runs. The paper's
// expansion is embarrassingly parallel over factor tile pairs, so a
// crashed rank's work is safely re-executable — the detect-and-reexecute
// posture MapReduce-lineage systems take for idempotent partitioned work.
// The supervisor makes that concrete for the simulated cluster:
//
//   - Checkpoints are tile-level and deterministic: for each plan tile
//     the supervisor tracks how many of its edges each rank's sink has
//     durably stored. A tile is committed once the stored total reaches
//     its known ground-truth arc count (Tile.Arcs — computable up front,
//     in the paper's spirit of properties known before generation).
//   - On a recoverable fault (RankCrashError, MessageLostError) the
//     failed attempt's partial progress is harvested, the faulty rank is
//     respawned — or, with Recovery.Reassign, stripped of its unfinished
//     tiles, which are moved round-robin to the survivors — and the
//     uncommitted tiles are replayed after an exponential backoff.
//   - Replay is exactly-once by deterministic prefix deduplication: a
//     tile's expansion order is fixed, owner routing is pure, and
//     per-sender channel delivery is FIFO, so the substream of a tile
//     arriving at one rank is identical across attempts and the stored
//     count is always a prefix of it. Each attempt the fenced sinks
//     suppress exactly that prefix, and the epoch fence in exchangeBlocks
//     drops any straggler batch from a previous attempt outright.
//   - Exhausting Recovery.MaxRetries degrades to the unsupervised loud
//     failure: the last injected fault is returned unchanged.

import (
	"context"
	"errors"
	"time"

	"kronlab/internal/dist/transport"
	"kronlab/internal/graph"
)

// maxBackoff caps the supervisor's exponential backoff so a large retry
// budget cannot stall a run for minutes.
const maxBackoff = time.Second

// tileState is the supervisor's checkpoint record for one plan tile.
type tileState struct {
	tile  Tile
	owner int // rank currently assigned to expand the tile
	// stored[d] counts the tile's edges durably stored by rank d's sink —
	// the destination rank under owner routing, the producing rank on
	// unrouted runs. Written only between attempts (harvest).
	stored    []int64
	committed bool
}

func (ts *tileState) storedTotal() int64 {
	var t int64
	for _, n := range ts.stored {
		t += n
	}
	return t
}

// fencedRankSink is the supervised attemptSink of one rank: it suppresses
// the already-stored prefix of each tile's substream and keeps the
// underlying RankSink open across attempts (Close happens exactly once,
// in finalize). All per-attempt state is touched by one goroutine at a
// time — the rank's receiver (routed) or body (unrouted) within an
// attempt, the supervisor between attempts, with happens-before through
// RunContext's spawn and join.
type fencedRankSink struct {
	rank  int
	under RankSink        // created lazily once, reused across attempts
	bs    BlockStorer     // under's block fast path, when it has one
	tbs   TileBlockStorer // preferred over bs when under needs tile framing

	skip    map[int]int64 // remaining prefix to suppress this attempt, per tile
	stored  map[int]int64 // edges newly stored this attempt, per tile
	skipped int64         // duplicates suppressed this attempt

	// Hot-path cache of the current tile's counters; batches arrive
	// tile-framed, so tile switches are rare and the per-batch cost is an
	// int compare instead of two map lookups.
	curTile int
	curSkip int64
	curNew  int64
}

func (f *fencedRankSink) setTile(tile int) {
	f.flushCur()
	f.curTile = tile
	f.curSkip = f.skip[tile]
	f.curNew = 0
}

func (f *fencedRankSink) flushCur() {
	if f.curTile >= 0 {
		f.skip[f.curTile] = f.curSkip
		f.stored[f.curTile] += f.curNew
	}
	f.curTile = -1
}

// storeBlock suppresses the tile substream's replayed prefix — batching
// preserves substream order, so the prefix is simply the leading
// min(curSkip, len) edges of however many batches it spans — and stores
// the remainder through the block fast path when the sink has one.
func (f *fencedRankSink) storeBlock(tile int, edges []graph.Edge) (int64, error) {
	if tile != f.curTile {
		f.setTile(tile)
	}
	if f.curSkip > 0 {
		n := int64(len(edges))
		if n > f.curSkip {
			n = f.curSkip
		}
		f.curSkip -= n
		f.skipped += n
		edges = edges[n:]
		if len(edges) == 0 {
			return 0, nil
		}
	}
	var stored int64
	var err error
	if f.tbs != nil {
		stored, err = f.tbs.StoreTileBlock(tile, edges)
	} else if f.bs != nil {
		stored, err = f.bs.StoreBlock(edges)
	} else {
		for _, e := range edges {
			if err = f.under.Store(e); err != nil {
				break
			}
			stored++
		}
	}
	f.curNew += stored
	return stored, err
}

// endAttempt keeps the underlying sink open across attempts but flushes
// its tail (see tailFlusher) on every attempt, the failed ones included:
// a replay whose tiles are all committed expands nothing, and this flush
// is then the only point at which the previous attempt's tail can move.
func (f *fencedRankSink) endAttempt() (int64, error) {
	f.flushCur()
	return f.skipped, flushTail(f.under)
}

// supervision is the cross-attempt state of one supervised run.
type supervision struct {
	cfg    Config
	routed bool
	tiles  []*tileState
	byID   map[int]*tileState
	sinks  []*fencedRankSink
}

func newSupervision(cfg Config) *supervision {
	p := cfg.Plan
	s := &supervision{cfg: cfg, routed: cfg.Owner != nil, byID: make(map[int]*tileState)}
	for rk, ts := range p.Tiles {
		for _, t := range ts {
			st := &tileState{tile: t, owner: rk, stored: make([]int64, p.R)}
			s.tiles = append(s.tiles, st)
			s.byID[t.ID] = st
		}
	}
	s.sinks = make([]*fencedRankSink, p.R)
	for i := range s.sinks {
		s.sinks[i] = &fencedRankSink{rank: i, curTile: -1}
	}
	return s
}

// sinkFor is the engine's per-rank sink factory under supervision: the
// underlying RankSink is created on the rank's first surviving attempt
// and then reused, so a replay appends to the same durable output.
func (s *supervision) sinkFor(rk *Rank) (attemptSink, error) {
	f := s.sinks[rk.ID()]
	if f.under == nil {
		rs, err := s.cfg.Sink.Rank(rk)
		if err != nil {
			return nil, err
		}
		f.under = rs
		f.bs, _ = rs.(BlockStorer)
		f.tbs, _ = rs.(TileBlockStorer)
	}
	return f, nil
}

// beginAttempt installs each rank's skip prefixes from the checkpoint
// table. Routed runs skip per (tile, destination); unrouted runs skip the
// tile's full stored total at its current producer (previously stored
// edges may live in another rank's sink after reassignment — verification
// merges per-rank outputs, so placement does not matter, only the count).
func (s *supervision) beginAttempt() {
	for _, f := range s.sinks {
		f.skip = make(map[int]int64, len(s.byID))
		f.stored = make(map[int]int64, len(s.byID))
		f.skipped = 0
		f.curTile = -1
	}
	for _, ts := range s.tiles {
		if ts.committed {
			continue
		}
		if s.routed {
			for d, n := range ts.stored {
				if n > 0 {
					s.sinks[d].skip[ts.tile.ID] = n
				}
			}
		} else if n := ts.storedTotal(); n > 0 {
			s.sinks[ts.owner].skip[ts.tile.ID] = n
		}
	}
}

// harvest folds the finished attempt's per-tile stored counts into the
// checkpoint table, marks tiles whose stored total reached their ground
// truth as committed, and returns the duplicates suppressed this attempt.
// Partial progress from a failed attempt counts: those edges reached the
// sinks before the teardown.
func (s *supervision) harvest() int64 {
	var skipped int64
	for _, f := range s.sinks {
		f.flushCur() // no-op after endAttempt; covers ranks that died early
		for id, n := range f.stored {
			if n > 0 {
				s.byID[id].stored[f.rank] += n
			}
		}
		skipped += f.skipped
	}
	for _, ts := range s.tiles {
		if !ts.committed && ts.storedTotal() == ts.tile.Arcs() {
			ts.committed = true
		}
	}
	return skipped
}

// nextAssignment builds the replay's per-rank tile lists: committed tiles
// drop out, and with Recovery.Reassign the blamed rank's remaining tiles
// move round-robin to the other ranks (counted in the return value).
func (s *supervision) nextAssignment(blame int) ([][]Tile, int64) {
	r := s.cfg.Plan.R
	assigned := make([][]Tile, r)
	var moved int64
	rr := 0
	for _, ts := range s.tiles {
		if ts.committed {
			continue
		}
		if s.cfg.Reassign && ts.owner == blame && r > 1 {
			if rr == blame {
				rr = (rr + 1) % r
			}
			ts.owner = rr
			rr = (rr + 1) % r
			moved++
		}
		assigned[ts.owner] = append(assigned[ts.owner], ts.tile)
	}
	return assigned, moved
}

// finalize closes every underlying RankSink exactly once, after the last
// attempt. Ranks whose sink was never created (every attempt died before
// setup) have nothing to close.
func (s *supervision) finalize() error {
	var first error
	for _, f := range s.sinks {
		if f.under == nil {
			continue
		}
		if err := f.under.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// classify splits run errors into recoverable faults with a blamed rank
// (a crashed rank, the sender of a lost message, or a rank the failure
// detector declared partitioned) and everything else. A PeerError is
// recoverable because Reset heals the simulated partition — the replay
// runs on an intact network, while the blamed rank's uncommitted tiles
// are replayed exactly-once like any other fault's.
func classify(err error) (int, bool) {
	var rc *RankCrashError
	if errors.As(err, &rc) {
		return rc.Rank, true
	}
	var ml *MessageLostError
	if errors.As(err, &ml) {
		return ml.From, true
	}
	var pe *transport.PeerError
	if errors.As(err, &pe) {
		return pe.Proc, true
	}
	return 0, false
}

// sleepBackoff waits base·2^(retry-1), capped at maxBackoff, before the
// given retry (1-based); cancelling ctx cuts the wait short and returns
// its cause.
func sleepBackoff(ctx context.Context, base time.Duration, retry int) error {
	if err := context.Cause(ctx); err != nil {
		return err
	}
	if base <= 0 {
		return nil
	}
	d := base << (retry - 1)
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// supervise is Run's supervised form: one cluster is reused across up to
// 1+MaxRetries attempts (Reset between them), with the attempt number as
// the transport epoch. Stats aggregate across attempts — generated and
// traffic counters include replayed work, stored counts stay exactly-once
// — and the recovery counters (RetriesPerRank, TilesReassigned,
// RecoveredRuns, DuplicatesSkipped) record what the supervisor did.
func supervise(ctx context.Context, cfg Config) (Stats, error) {
	p := cfg.Plan
	c, err := NewCluster(p.R)
	if err != nil {
		return Stats{}, err
	}
	if cfg.Faults != nil {
		c.InjectFaults(*cfg.Faults)
	}
	s := newSupervision(cfg)
	agg := Stats{
		PerRankGenerated: make([]int64, p.R),
		PerRankStored:    make([]int64, p.R),
		RetriesPerRank:   make([]int64, p.R),
	}
	assigned := p.Tiles
	var runErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.Reset()
			// Written strictly between attempts: Reset joined the previous
			// attempt's goroutines, RunContext's spawns order this write
			// before the next attempt's reads in send/exchangeTiles.
			c.epoch = int64(attempt)
		}
		s.beginAttempt()
		perGen := make([]int64, p.R)
		perStored := make([]int64, p.R)
		runErr = runAttempt(ctx, c, cfg.Owner, assigned, s.sinkFor, perGen, perStored, cfg.batchSize())
		st := c.Stats()
		agg.EdgesGenerated += st.EdgesGenerated
		agg.EdgesRouted += st.EdgesRouted
		agg.BytesSent += st.BytesSent
		agg.Messages += st.Messages
		agg.StaleBatches += st.StaleBatches
		if st.MaxInboxDepth > agg.MaxInboxDepth {
			agg.MaxInboxDepth = st.MaxInboxDepth
		}
		for i := range perGen {
			agg.PerRankGenerated[i] += perGen[i]
			agg.PerRankStored[i] += perStored[i]
		}
		agg.DuplicatesSkipped += s.harvest()
		if runErr == nil {
			if attempt > 0 {
				agg.RecoveredRuns = 1
			}
			break
		}
		blame, recoverable := classify(runErr)
		if !recoverable || attempt >= cfg.MaxRetries {
			break // budget exhausted (or unrecoverable): stay loud
		}
		agg.RetriesPerRank[blame]++
		var moved int64
		assigned, moved = s.nextAssignment(blame)
		agg.TilesReassigned += moved
		if err := sleepBackoff(ctx, cfg.Backoff, attempt+1); err != nil {
			runErr = err
			break
		}
	}
	if cerr := s.finalize(); runErr == nil && cerr != nil {
		runErr = cerr
	}
	// Drain any stale inbox residue the last attempt left behind, then
	// snapshot the leak probe: a supervised run must hand back every
	// pooled buffer no matter how many attempts it took.
	c.Reset()
	agg.OutstandingBufs = c.outstandingBufs()
	return agg, runErr
}
