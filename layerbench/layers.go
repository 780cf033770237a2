package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/dist/transport/wire"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
	"kronlab/internal/serve"
	"kronlab/internal/store"
)

// endToEnd are the figures a --trace 0 run reports on every workload.
var endToEnd = []string{"setup_s", "arcs_per_s", "op_ms_p50", "rss_peak_mb"}

// perLayer are the figures a --trace 1 run reports, one module at a time.
var perLayer = []string{
	"core.expand_arcs_per_s", "core.chain_expand_arcs_per_s", "core.seek_us",
	"dist.plan_us", "dist.empty_run_us", "dist.count_arcs_per_s",
	"dist.route_arcs_per_s", "dist.messages", "dist.max_inbox_depth",
	"dist.store_arcs_per_s", "dist.sink_busy_share",
	"dist.stream_arcs_per_s", "dist.stream_emit_share", "dist.stream_failed",
	"wire.encode_arcs_per_s", "wire.decode_arcs_per_s",
	"tcp.route_arcs_per_s", "tcp.mesh_setup_ms", "tcp.stale_frames", "tcp.heartbeat_misses",
	"store.append_arcs_per_s", "store.finalize_ms",
	"groundtruth.summary_ms", "groundtruth.query_us",
	"serve.gt_handler_us", "serve.gen_binary_arcs_per_s", "serve.gen_ndjson_arcs_per_s",
	"serve.cache_hit_ratio", "serve.admission_rejected",
	"trace.overhead_share",
}

// layerRun is the state of one traced run.
type layerRun struct {
	o     *options
	rep   *report
	tr    *tracer
	store *storeInputs
	srv   *serveInputs // factors and references only; no server process
	ranks int          // kronserve's default (see serverRanks)
}

// runLayers times calls into each module's public functions on the
// workloads' inputs. Every call sits in a span; hot loops are timed a
// pass at a time. Each checked call counts as one op.
func runLayers(o *options, rep *report) error {
	l := &layerRun{o: o, rep: rep, tr: newTracer(), ranks: serverRanks()}
	var err error
	if err = timedSetup(o, rep, func() (err error) {
		l.store, err = setupStore(o)
		return err
	}); err != nil {
		return err
	}
	if l.srv, err = serveFactors(o, true, true); err != nil {
		return err
	}
	rep.addProc(procInfo{Name: "layerbench (in-process layers)", GOMAXPROCS: runtime.GOMAXPROCS(0),
		Ranks: l.ranks})
	for _, step := range []func() error{
		l.core, l.plan, l.engine, l.storeSink, l.stream, l.wire, l.tcp,
		l.shardWriter, l.groundtruth, l.serve,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	rep.spans = l.tr.snapshot()
	return nil
}

// timed runs f inside a span and returns its duration.
func (l *layerRun) timed(name string, f func()) time.Duration {
	id := l.tr.begin(name, -1)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.tr.end(id)
	return d
}

func (l *layerRun) set(name string, v float64, unit string) { l.rep.metrics[name] = metric{v, unit} }

// passes is how many times a bulk measurement repeats (median reported).
const passes = 3

// core times the expansion kernel on the store product and the chain
// cursor and its seek on gen_window's power chain.
func (l *layerRun) core() error {
	a, b := l.store.a.g, l.store.b.g
	bArcs, nB := b.ArcSlice(), b.NumVertices()
	out := make([]graph.Edge, 0, len(bArcs))
	var rates []float64
	for p := 0; p < passes; p++ {
		var n int64
		d := l.timed("core.ExpandBlock", func() {
			for _, arc := range a.ArcSlice() {
				out = core.ExpandBlock(arc, bArcs, nB, out[:0])
				n += int64(len(out))
			}
		})
		rates = append(rates, float64(n)/d.Seconds())
		l.check(n == l.store.ref.arcs, "ExpandBlock produced %d arcs, closed form %d", n, l.store.ref.arcs)
	}
	l.set("core.expand_arcs_per_s", median(rates), "arcs/s")

	ch := l.srv.chain
	total := mustArcs(ch)
	rng := rand.New(rand.NewSource(subSeed(l.o.seed, 200)))
	budget := min(total, 32<<20)
	cur := core.NewTailCursor(ch.Factors())
	block := make([]graph.Edge, 0, dist.DefaultBatchSize)
	rates = rates[:0]
	for p := 0; p < passes; p++ {
		start := rng.Int63n(total - budget + 1)
		cur.SeekTo(start)
		var n int64
		d := l.timed("core.TailCursor.ExpandNext", func() {
			for n < budget {
				block = cur.ExpandNext(0, 0, block[:0], cap(block))
				if len(block) == 0 {
					break
				}
				n += int64(len(block))
			}
		})
		rates = append(rates, float64(n)/d.Seconds())
		l.check(n >= budget, "TailCursor stopped after %d of %d arcs", n, budget)
	}
	l.set("core.chain_expand_arcs_per_s", median(rates), "arcs/s")

	var seeks []float64
	for i := 0; i < 1000; i++ {
		off := rng.Int63n(total)
		d := l.timed("core.TailCursor.SeekTo", func() { cur.SeekTo(off) })
		seeks = append(seeks, float64(d.Nanoseconds())/1e3)
	}
	l.set("core.seek_us", median(seeks), "us")
	return nil
}

// opErr records a call that returned err as a failed op, and reports
// whether it succeeded.
func (l *layerRun) opErr(err error) bool {
	if err != nil {
		l.rep.op(err)
	}
	return err == nil
}

// check records one checked call.
func (l *layerRun) check(ok bool, format string, args ...any) {
	if ok {
		l.rep.op(nil)
		return
	}
	l.rep.op(mismatch(format, args...))
}

// plan times the seek planner and an engine run over a zero-arc plan
// (cluster build and teardown alone).
func (l *layerRun) plan() error {
	ch := l.srv.chain
	total := mustArcs(ch)
	rng := rand.New(rand.NewSource(subSeed(l.o.seed, 201)))
	var us []float64
	for i := 0; i < 1000; i++ {
		off := rng.Int63n(total - l.o.sizes.window + 1)
		var err error
		d := l.timed("dist.PlanChain1D+Plan.Slice", func() {
			var p dist.Plan
			if p, err = dist.PlanChain1D(ch, l.ranks); err == nil {
				_, err = p.Slice(off, l.o.sizes.window)
			}
		})
		if err != nil {
			return err
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	l.set("dist.plan_us", median(us), "us")

	p, err := dist.PlanChain1D(ch, l.ranks)
	if err != nil {
		return err
	}
	if p, err = p.Slice(0, 0); err != nil {
		return err
	}
	us = us[:0]
	for i := 0; i < 200; i++ {
		var cs dist.CountSink
		var rerr error
		d := l.timed("dist.Run(empty)", func() {
			_, rerr = dist.Run(context.Background(), dist.Config{Plan: p, Sink: &cs})
		})
		if rerr != nil {
			return rerr
		}
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	l.set("dist.empty_run_us", median(us), "us")
	return nil
}

// engine times dist.Run with a count sink, unrouted and routed by
// source, on the store product at krongen's default ranks.
func (l *layerRun) engine() error {
	p, err := dist.PlanChain1D(l.store.ch, krongenDefaultRanks)
	if err != nil {
		return err
	}
	for _, routed := range []bool{false, true} {
		var rates []float64
		var st dist.Stats
		for i := 0; i < passes; i++ {
			cfg := dist.Config{Plan: p, Sink: &dist.CountSink{}}
			name := "dist.Run(count)"
			if routed {
				cfg.Owner, name = dist.OwnerBySource, "dist.Run(route,count)"
			}
			var rerr error
			d := l.timed(name, func() { st, rerr = dist.Run(context.Background(), cfg) })
			if rerr != nil {
				return rerr
			}
			got := cfg.Sink.(*dist.CountSink).Total()
			l.check(got == l.store.ref.arcs, "%s counted %d arcs, closed form %d", name, got, l.store.ref.arcs)
			rates = append(rates, float64(got)/d.Seconds())
		}
		if routed {
			l.set("dist.route_arcs_per_s", median(rates), "arcs/s")
			l.set("dist.messages", float64(st.Messages), "count")
			l.set("dist.max_inbox_depth", float64(st.MaxInboxDepth), "count")
		} else {
			l.set("dist.count_arcs_per_s", median(rates), "arcs/s")
		}
	}
	return nil
}

// timingSink wraps a store sink's ranks so each StoreBlock sits in a
// span under the run's span; busy accumulates their durations.
type timingSink struct {
	inner  dist.Sink
	tr     *tracer
	parent int
	busy   atomic.Int64
}

func (s *timingSink) Rank(rk *dist.Rank) (dist.RankSink, error) {
	rs, err := s.inner.Rank(rk)
	if err != nil {
		return nil, err
	}
	bs, ok := rs.(dist.BlockStorer)
	if !ok {
		return nil, fmt.Errorf("store sink rank does not take blocks")
	}
	return &timingRankSink{RankSink: rs, bs: bs, s: s}, nil
}

type timingRankSink struct {
	dist.RankSink
	bs dist.BlockStorer
	s  *timingSink
}

func (t *timingRankSink) StoreBlock(edges []graph.Edge) (int64, error) {
	id := t.s.tr.begin("dist.StoreSink.StoreBlock", t.s.parent)
	t0 := time.Now()
	n, err := t.bs.StoreBlock(edges)
	t.s.busy.Add(int64(time.Since(t0)))
	t.s.tr.end(id)
	return n, err
}

// storeSink runs the store op in-process — dist.Run routed by source
// into dist.NewStoreSink, then Finalize. After an untimed warm-up it
// alternates passes with spans around every StoreBlock and passes with
// tracing off; the gap between their medians is the tracing overhead.
func (l *layerRun) storeSink() error {
	p, err := dist.PlanChain1D(l.store.ch, krongenDefaultRanks)
	if err != nil {
		return err
	}
	var on, off, busy, fin []float64
	for i := 0; i < 1+2*2; i++ {
		traced := i%2 == 1
		tr := l.tr
		if !traced {
			tr = nil
		}
		dir := filepath.Join(l.o.work, "layer-store")
		ss := dist.NewStoreSink(dir, p.R)
		ts := &timingSink{inner: ss, tr: tr}
		ts.parent = tr.begin("dist.Run(route,store)", -1)
		t0 := time.Now()
		_, rerr := dist.Run(context.Background(), dist.Config{Plan: p, Owner: dist.OwnerBySource, Sink: ts})
		run := time.Since(t0)
		tr.end(ts.parent)
		if rerr != nil {
			return rerr
		}
		var ferr error
		id := tr.begin("dist.StoreSink.Finalize", -1)
		t0 = time.Now()
		_, ferr = ss.Finalize(p.NC)
		f := time.Since(t0)
		tr.end(id)
		if ferr != nil {
			return ferr
		}
		l.rep.op(checkStore(dir, l.store.ref))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		switch {
		case i == 0: // warm-up
		case traced:
			on = append(on, run.Seconds())
			busy = append(busy, float64(ts.busy.Load())/float64(int64(p.R)*int64(run)))
			fin = append(fin, float64(f.Nanoseconds())/1e6)
		default:
			off = append(off, run.Seconds())
		}
	}
	l.set("dist.store_arcs_per_s", float64(l.store.ref.arcs)/median(on), "arcs/s")
	l.set("dist.sink_busy_share", median(busy), "ratio")
	l.set("store.finalize_ms", median(fin), "ms")
	l.set("trace.overhead_share", (median(on)-median(off))/median(off), "ratio")
	return nil
}

// stream calls dist.StreamChainFrom on the binary pair exactly as
// kronserve's /gen does — default ranks, one supervised retry — under
// the stream deadline, checking the serial order as it arrives.
func (l *layerRun) stream() error {
	ctx, cancel := context.WithTimeout(context.Background(), l.o.deadlines.stream)
	defer cancel()
	chk := l.srv.pairRef.check()
	var emitNs int64
	var lastEnd time.Duration
	var cerr error
	parent := l.tr.begin("dist.StreamChainFrom", -1)
	t0 := time.Now()
	_, err := dist.StreamChainFrom(ctx, l.srv.pair, l.ranks, false, 0, 0, -1,
		dist.Recovery{MaxRetries: 1, Backoff: 5 * time.Millisecond},
		func(batch []graph.Edge) error {
			id := l.tr.begin("emit", parent)
			s := time.Now()
			for _, e := range batch {
				if cerr = chk.add(e.U, e.V); cerr != nil {
					break
				}
			}
			emitNs += int64(time.Since(s))
			lastEnd = time.Since(t0)
			l.tr.end(id)
			return cerr
		})
	l.tr.end(parent)
	verified, ferr := chk.finish()
	switch {
	case cerr != nil:
		l.rep.op(cerr)
	case ferr != nil:
		l.rep.op(ferr)
	case err != nil:
		l.rep.op(fmt.Errorf("StreamChainFrom: %w after %d arcs", err, verified))
	default:
		l.check(verified == l.srv.pairRef.total, "stream of %d arcs, closed form %d", verified, l.srv.pairRef.total)
	}
	failed := 0.0
	if err != nil {
		failed = 1
	}
	l.set("dist.stream_failed", failed, "count")
	l.set("dist.stream_arcs_per_s", float64(verified)/lastEnd.Seconds(), "arcs/s")
	l.set("dist.stream_emit_share", float64(emitNs)/float64(lastEnd), "ratio")
	return nil
}

// wire times the batch frame codec on 1024-edge batches of the pair.
func (l *layerRun) wire() error {
	batch := make([]graph.Edge, 0, dist.DefaultBatchSize)
	l.srv.pair.Arcs(func(u, v int64) bool {
		batch = append(batch, graph.Edge{U: u, V: v})
		return len(batch) < cap(batch)
	})
	const frames = 16 << 10
	var buf []byte
	var enc, dec []float64
	for p := 0; p < passes; p++ {
		d := l.timed("wire.AppendBatch", func() {
			for i := 0; i < frames; i++ {
				buf = wire.AppendBatch(buf[:0], 0, 1, 1, int64(i), batch, false)
			}
		})
		enc = append(enc, float64(frames*len(batch))/d.Seconds())
		out := make([]graph.Edge, 0, len(batch))
		var derr error
		d = l.timed("wire.DecodeBatch", func() {
			for i := 0; i < frames && derr == nil; i++ {
				_, out, _, derr = wire.DecodeBatch(out[:0], buf)
			}
		})
		if derr != nil {
			return derr
		}
		l.check(len(out) == len(batch) && out[len(out)-1] == batch[len(batch)-1], "decoded batch differs")
		dec = append(dec, float64(frames*len(batch))/d.Seconds())
	}
	l.set("wire.encode_arcs_per_s", median(enc), "arcs/s")
	l.set("wire.decode_arcs_per_s", median(dec), "arcs/s")
	return nil
}

// tcp runs dist.RunCluster over two loopback tcp.Nodes in this process,
// routed by source into count sinks: once with the pair's full plan and
// once with an empty plan (mesh set-up and teardown alone).
func (l *layerRun) tcp() error {
	p, err := dist.PlanChain1D(l.srv.pair, krongenDefaultRanks)
	if err != nil {
		return err
	}
	empty, err := p.Slice(0, 0)
	if err != nil {
		return err
	}
	// A failed cluster run (an intermittent "link to proc 1 failed: EOF"
	// at TCP start-up is a known defect) counts as a failed op; the figures
	// come from the runs that finished.
	var full []clusterRun
	var setups []float64
	for i := 0; i < passes; i++ {
		if r, err := l.cluster(p, "tcp.RunCluster"); l.opErr(err) {
			full = append(full, r)
			l.check(r.arcs == l.srv.pairRef.total, "cluster counted %d arcs, closed form %d", r.arcs, l.srv.pairRef.total)
		}
		if r, err := l.cluster(empty, "tcp.RunCluster(empty)"); l.opErr(err) {
			setups = append(setups, float64(r.wall.Nanoseconds())/1e6)
		}
	}
	if len(full) == 0 || len(setups) == 0 {
		return fmt.Errorf("every loopback cluster run failed: %v", l.rep.errs)
	}
	var rates []float64
	var stale, misses int64
	for _, r := range full {
		rates = append(rates, float64(r.arcs)/r.wall.Seconds())
		stale += r.stats.StaleBatches
		misses += r.stats.HeartbeatMisses
	}
	l.set("tcp.route_arcs_per_s", median(rates), "arcs/s")
	l.set("tcp.stale_frames", float64(stale), "count")
	l.set("tcp.heartbeat_misses", float64(misses), "count")
	l.set("tcp.mesh_setup_ms", median(setups), "ms")
	return nil
}

type clusterRun struct {
	arcs  int64
	wall  time.Duration
	stats dist.Stats // the head's aggregate
}

func (l *layerRun) cluster(p dist.Plan, name string) (clusterRun, error) {
	hash := dist.PlanHash(p)
	nodes := make([]*tcp.Node, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		n, err := tcp.NewNode("127.0.0.1:0", i, hash)
		if err != nil {
			return clusterRun{}, err
		}
		defer n.Close()
		nodes[i], addrs[i] = n, n.Addr()
	}
	procs := transport.SplitRanks(addrs, p.R)
	sinks := []*dist.CountSink{{}, {}}
	errs := make([]error, 2)
	var head dist.Stats
	var wg sync.WaitGroup
	d := l.timed(name, func() {
		for i := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := dist.RunCluster(context.Background(),
					dist.ClusterConfig{Procs: procs, Self: i, Node: nodes[i]},
					dist.Config{Plan: p, Owner: dist.OwnerBySource, Sink: sinks[i]})
				errs[i] = err
				if i == 0 {
					head = st
				}
			}()
		}
		wg.Wait()
	})
	for _, err := range errs {
		if err != nil {
			return clusterRun{}, err
		}
	}
	return clusterRun{arcs: sinks[0].Total() + sinks[1].Total(), wall: d, stats: head}, nil
}

// shardWriter times store.ShardWriter.AppendBlock in 4096-edge blocks.
func (l *layerRun) shardWriter() error {
	block := make([]graph.Edge, 0, 4096)
	l.srv.pair.Arcs(func(u, v int64) bool {
		block = append(block, graph.Edge{U: u, V: v})
		return len(block) < cap(block)
	})
	blocks := int(min(l.store.ref.arcs/int64(len(block)), 4096))
	dir := filepath.Join(l.o.work, "layer-shard")
	var rates []float64
	for p := 0; p < passes; p++ {
		sw, err := store.NewShardWriter(dir, 0)
		if err != nil {
			return err
		}
		var werr error
		d := l.timed("store.ShardWriter.AppendBlock", func() {
			for i := 0; i < blocks && werr == nil; i++ {
				werr = sw.AppendBlock(block)
			}
			if werr == nil {
				werr = sw.Close()
			}
		})
		if werr != nil {
			return werr
		}
		l.check(sw.Count() == int64(blocks*len(block)), "shard holds %d arcs, wrote %d", sw.Count(), blocks*len(block))
		rates = append(rates, float64(blocks*len(block))/d.Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	l.set("store.append_arcs_per_s", median(rates), "arcs/s")
	return nil
}

// groundtruth times summary construction (the distance tier, as the
// /gt diameter queries need it) and each /gt property's closed form.
func (l *layerRun) groundtruth() error {
	var ms []float64
	sums := map[string]*groundtruth.Summary{}
	for p := 0; p < passes; p++ {
		for _, f := range []factor{l.srv.a8, l.srv.b8, l.srv.c} {
			var s *groundtruth.Summary
			d := l.timed("groundtruth.NewSummary", func() { s = groundtruth.NewSummary(f.g, f.name, true, true) })
			ms = append(ms, float64(d.Nanoseconds())/1e6)
			sums[f.name] = s
		}
	}
	l.set("groundtruth.summary_ms", median(ms), "ms")

	fa, fb, fc := groundtruth.NewFactor(l.srv.a8.g), groundtruth.NewFactor(l.srv.b8.g), groundtruth.NewFactor(l.srv.c.g)
	chain := []*groundtruth.Factor{fc, fc, fc}
	loops := []*groundtruth.Factor{sums["c"].F, sums["c"].F, sums["c"].F}
	var tri, ctri int64
	queries := map[string]func(){
		"GlobalTriangles":      func() { tri = groundtruth.GlobalTriangles(fa, fb) },
		"Diameter":             func() { groundtruth.Diameter(sums["a8"].F, sums["b8"].F) },
		"ChainNumArcs":         func() { groundtruth.ChainNumArcs(chain) },
		"ChainGlobalTriangles": func() { ctri, _ = groundtruth.ChainGlobalTriangles(chain) },
		"ChainDiameter":        func() { groundtruth.ChainDiameter(loops) },
		"ChainDegreeAt":        func() { groundtruth.ChainDegreeAt(chain, []int64{0, 0, 0}) },
	}
	var us []float64
	for _, name := range sortedKeys(queries) {
		for i := 0; i < 100; i++ {
			d := l.timed("groundtruth."+name, queries[name])
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
	}
	l.check(fmt.Sprint(tri) == string(mustRaw(l.srv.gt[1].want["global_triangles"])), "GlobalTriangles drifted")
	l.check(fmt.Sprint(ctri) == string(mustRaw(l.srv.gt[5].want["global_triangles"])), "ChainGlobalTriangles drifted")
	l.set("groundtruth.query_us", median(us), "us")
	return nil
}

func mustRaw(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

// discardWriter is a flushing ResponseWriter that keeps only the byte
// count, the time of the last write, and the first keep bytes.
type discardWriter struct {
	hdr    http.Header
	code   int
	n      int64
	t0     time.Time
	last   time.Duration
	keep   int
	prefix bytes.Buffer
}

func (w *discardWriter) Header() http.Header { return w.hdr }
func (w *discardWriter) WriteHeader(c int)   { w.code = c }
func (w *discardWriter) Flush()              {}
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.prefix.Len() < w.keep {
		w.prefix.Write(p[:min(len(p), w.keep-w.prefix.Len())])
	}
	w.n += int64(len(p))
	w.last = time.Since(w.t0)
	return len(p), nil
}

// serve drives serve.Server.ServeHTTP with no socket: /gt queries,
// default-ranks /gen streams under the stream deadline, and /metrics.
func (l *layerRun) serve() error {
	s := serve.New(serve.Config{})
	do := func(ctx context.Context, method, target string, body []byte) *discardWriter {
		req := httptest.NewRequest(method, target, bytes.NewReader(body)).WithContext(ctx)
		w := &discardWriter{hdr: http.Header{}, code: http.StatusOK, t0: time.Now(), keep: 1 << 16}
		s.ServeHTTP(w, req)
		return w
	}
	for _, f := range []factor{l.srv.a8, l.srv.b8, l.srv.a7, l.srv.b7, l.srv.c} {
		body, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if w := do(context.Background(), http.MethodPost, "/factors?name="+f.name, body); w.code != http.StatusCreated {
			return fmt.Errorf("registering %s in-process: HTTP %d", f.name, w.code)
		}
	}

	rng := rand.New(rand.NewSource(subSeed(l.o.seed, 202)))
	var us []float64
	for round := 0; round < 50; round++ {
		for i, q := range l.srv.gt {
			ch := l.srv.pair
			if i >= 4 {
				ch = l.srv.chain
			}
			if q.want == nil {
				q = degreeQuery(q, ch, rng)
			}
			var w *discardWriter
			d := l.timed("serve.ServeHTTP(/gt)", func() { w = do(context.Background(), http.MethodGet, "/gt/"+q.path, nil) })
			us = append(us, float64(d.Nanoseconds())/1e3)
			var got map[string]json.RawMessage
			err := json.Unmarshal(w.prefix.Bytes(), &got)
			if err == nil {
				err = checkGT(q, got)
			}
			l.rep.op(err)
		}
	}
	l.set("serve.gt_handler_us", median(us), "us")

	for _, g := range []struct {
		path, format, metric string
		ref                  *streamRef
	}{
		{"/gen/a8/b8/edges?format=binary", "binary", "serve.gen_binary_arcs_per_s", l.srv.pairRef},
		{"/gen/a7/b7/edges?format=ndjson", "ndjson", "serve.gen_ndjson_arcs_per_s", l.srv.smallRef},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), l.o.deadlines.stream)
		var w *discardWriter
		l.timed("serve.ServeHTTP(/gen "+g.format+")", func() { w = do(ctx, http.MethodGet, g.path, nil) })
		cancel()
		arcs, err := strconv.ParseInt(w.hdr.Get("X-Kronlab-Arcs-Written"), 10, 64)
		switch {
		case err != nil:
			err = mismatch("in-process %s /gen: X-Kronlab-Arcs-Written %q", g.format, w.hdr.Get("X-Kronlab-Arcs-Written"))
		case w.hdr.Get("X-Kronlab-Complete") != "true":
			err = fmt.Errorf("in-process %s /gen: X-Kronlab-Complete %q after %d arcs", g.format, w.hdr.Get("X-Kronlab-Complete"), arcs)
		case arcs != g.ref.total:
			err = mismatch("in-process %s /gen wrote %d arcs, closed form %d", g.format, arcs, g.ref.total)
		}
		l.rep.op(err)
		l.set(g.metric, float64(arcs)/w.last.Seconds(), "arcs/s")
	}

	w := do(context.Background(), http.MethodGet, "/metrics", nil)
	for name, v := range metricsFrom(w.prefix.String()) {
		l.rep.metrics[name] = v
	}
	return nil
}
