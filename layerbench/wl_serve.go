package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/groundtruth"
)

// serveInputs are the factors the serve workloads register, the
// reference products, and the running server.
type serveInputs struct {
	srv            *server
	a8, b8, a7, b7 factor // the binary pair and the ndjson pair
	c              factor // the power chain's factor
	pair, small    *core.Chain
	chain          *core.Chain
	pairRef        *streamRef // full-stream checks (gen_stream)
	smallRef       *streamRef
	gt             []gtQuery // /gt queries (gen_window)
	// The arc ranges of the server's default-ranks plan over the pair
	// and the chain (gen_window draws its windows inside them).
	pairRanks, chainRanks [][2]int64
}

// gtQuery is one /gt request and the in-process ground truth its answer
// must carry.
type gtQuery struct {
	path string
	want map[string]any
}

const pairPath, chainPath = "a8/b8", "c,c,c"

// serveFactors writes the serve workloads' factor files and builds the
// reference products, with the checks for full streams and for /gt
// answers when asked for.
func serveFactors(o *options, streams, gt bool) (*serveInputs, error) {
	dir := filepath.Join(o.work, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &serveInputs{}
	var err error
	mk := func(dst *factor, name string, scale int, k uint64) {
		if err == nil {
			*dst, err = makeFactor(dir, name, scale, subSeed(o.seed, k))
		}
	}
	mk(&in.a8, "a8", o.sizes.binary, 3)
	mk(&in.b8, "b8", o.sizes.binary, 4)
	mk(&in.a7, "a7", o.sizes.ndjson, 5)
	mk(&in.b7, "b7", o.sizes.ndjson, 6)
	mk(&in.c, "c", o.sizes.chain, 7)
	if err != nil {
		return nil, err
	}
	if in.pair, err = chainOf(in.a8, in.b8); err != nil {
		return nil, err
	}
	if in.small, err = chainOf(in.a7, in.b7); err != nil {
		return nil, err
	}
	if in.chain, err = chainOf(in.c, in.c, in.c); err != nil {
		return nil, err
	}
	if streams {
		in.pairRef = newStreamRef(in.pair, 1<<16)
		in.smallRef = newStreamRef(in.small, 1<<16)
	}
	if gt {
		in.gt = gtQueries(in)
		if in.pairRanks, err = rankRanges(in.pair, serverRanks(), 2*o.sizes.window); err != nil {
			return nil, err
		}
		if in.chainRanks, err = rankRanges(in.chain, serverRanks(), 2*o.sizes.window); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// serverRanks is kronserve's default rank count for /gen: its
// GOMAXPROCS, which it inherits from this process, capped at
// serve.Config's default MaxRanks.
func serverRanks() int {
	return min(runtime.GOMAXPROCS(0), 64)
}

// rankRanges returns the stream range [start, end) each rank of the 1d
// plan over ch generates, in stream order, and checks that some rank's
// range holds a span of arcs.
func rankRanges(ch *core.Chain, ranks int, span int64) ([][2]int64, error) {
	plan, err := dist.PlanChain1D(ch, ranks)
	if err != nil {
		return nil, err
	}
	var out [][2]int64
	var at int64
	for _, tiles := range plan.Tiles {
		for _, t := range tiles {
			out = append(out, [2]int64{at, at + t.Arcs()})
			at += t.Arcs()
		}
	}
	if windowOffsets(out, span) == 0 {
		return nil, fmt.Errorf("no rank of %d generates %d arcs in a row", ranks, span)
	}
	return out, nil
}

// windowOffsets counts the offsets at which a window of span arcs lies
// inside one rank's range.
func windowOffsets(ranges [][2]int64, span int64) int64 {
	var n int64
	for _, r := range ranges {
		n += max(0, r[1]-r[0]-span+1)
	}
	return n
}

// drawWindow draws, uniformly, an offset at which a window of span arcs
// lies inside one rank's range.
func drawWindow(rng *rand.Rand, ranges [][2]int64, span int64) int64 {
	k := rng.Int63n(windowOffsets(ranges, span))
	for _, r := range ranges {
		n := max(0, r[1]-r[0]-span+1)
		if k < n {
			return r[0] + k
		}
		k -= n
	}
	panic("unreachable")
}

// setupServe prepares the inputs of gen_stream (window false) or
// gen_window, then starts kronserve, registers the factors and warms
// the summary cache.
func setupServe(o *options, window bool) (*serveInputs, error) {
	in, err := serveFactors(o, !window, window)
	if err != nil {
		return nil, err
	}
	if in.srv, err = startServer(o.bin); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, f := range []factor{in.a8, in.b8, in.a7, in.b7, in.c} {
		if err := in.srv.register(ctx, f); err != nil {
			in.srv.stop()
			return nil, err
		}
	}
	// Warm the summary cache at both tiers the queries use.
	for _, path := range []string{pairPath + "/summary", pairPath + "/diameter?loops=1",
		chainPath + "/summary", chainPath + "/diameter?loops=1"} {
		if _, err := getJSON(ctx, http.DefaultClient, in.srv.base+"/gt/"+path); err != nil {
			in.srv.stop()
			return nil, err
		}
	}
	return in, nil
}

// gtQueries builds the four query kinds over the pair and the chain with
// their in-process ground truth. Degree queries get their vertex later
// (see degreeQuery), from the client's seeded stream.
func gtQueries(in *serveInputs) []gtQuery {
	fa, fb := groundtruth.NewFactor(in.a8.g), groundtruth.NewFactor(in.b8.g)
	fc := groundtruth.NewFactor(in.c.g)
	edges, arcs := core.NumProductEdges(in.a8.g, in.b8.g)
	pairSum := map[string]any{"n": in.pair.NumVertices(), "edges": edges, "arcs": arcs}
	if comps, err := groundtruth.ProductComponents(fa, fb); err == nil {
		pairSum["components"] = comps
	}
	loopA := groundtruth.NewSummary(in.a8.g, "", true, true).F
	loopB := groundtruth.NewSummary(in.b8.g, "", true, true).F
	loopC := groundtruth.NewSummary(in.c.g, "", true, true).F
	fs := []*groundtruth.Factor{fc, fc, fc}
	cArcs, _ := groundtruth.ChainNumArcs(fs)
	cEdges, _ := groundtruth.ChainNumEdges(fs)
	cTau, _ := groundtruth.ChainGlobalTriangles(fs)
	return []gtQuery{
		{pairPath + "/summary", pairSum},
		{pairPath + "/triangles", map[string]any{"global_triangles": groundtruth.GlobalTriangles(fa, fb)}},
		{pairPath + "/degree", nil},
		{pairPath + "/diameter?loops=1", map[string]any{"diameter": hops(groundtruth.Diameter(loopA, loopB))}},
		{chainPath + "/summary", map[string]any{"n": in.chain.NumVertices(), "arcs": cArcs, "edges": cEdges}},
		{chainPath + "/triangles", map[string]any{"global_triangles": cTau}},
		{chainPath + "/degree", nil},
		{chainPath + "/diameter?loops=1", map[string]any{"diameter": hops(groundtruth.ChainDiameter([]*groundtruth.Factor{loopC, loopC, loopC}))}},
	}
}

func hops(h int64) any {
	if h == analytics.Unreachable {
		return nil
	}
	return h
}

// degreeQuery fills in a seeded vertex and its closed-form degree,
// ⊗ of the factor degrees at the vertex's coordinates.
func degreeQuery(q gtQuery, ch *core.Chain, rng *rand.Rand) gtQuery {
	p := rng.Int63n(ch.NumVertices())
	d := int64(1)
	coords := ch.Index().Split(p)
	for i, g := range ch.Factors() {
		d *= g.Degree(coords[i])
	}
	return gtQuery{path: q.path + "?p=" + strconv.FormatInt(p, 10), want: map[string]any{"degree": d}}
}

// getJSON fetches a JSON object.
func getJSON(ctx context.Context, c *http.Client, u string) (map[string]json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", u, resp.StatusCode, body)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, mismatch("GET %s: %v", u, err)
	}
	return out, nil
}

// checkGT compares the checked fields of an answer with the expected
// values, as JSON.
func checkGT(q gtQuery, got map[string]json.RawMessage) error {
	for k, v := range q.want {
		want, _ := json.Marshal(v)
		if string(got[k]) != string(want) {
			return mismatch("/gt/%s: %s = %s, ground truth %s", q.path, k, got[k], want)
		}
	}
	return nil
}

// firstByte records when the first body byte arrived.
type firstByte struct {
	r     io.Reader
	t0    time.Time
	first time.Duration
}

func (f *firstByte) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.first == 0 {
		f.first = time.Since(f.t0)
	}
	return n, err
}

// genResult is one /gen response as the client saw it.
type genResult struct {
	arcs  int64 // arcs read and checked
	wall  time.Duration
	ttfb  time.Duration
	token string
	err   error
}

// fetchGen runs one /gen request under a deadline and feeds every arc
// to add. The op fails when the deadline expires, the stream is cut, the
// X-Kronlab-Complete trailer is not "true", or X-Kronlab-Arcs-Written
// disagrees with the arcs read.
func fetchGen(c *http.Client, u string, binaryFmt bool, deadline time.Duration, add func(u, v int64) error) (res genResult) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	defer func() { res.wall = time.Since(t0) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		res.err = err
		return res
	}
	resp, err := c.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		res.err = fmt.Errorf("GET %s: HTTP %d: %s", u, resp.StatusCode, b)
		return res
	}
	fb := &firstByte{r: resp.Body, t0: t0}
	if binaryFmt {
		res.arcs, err = readBinaryArcs(fb, add)
	} else {
		res.arcs, err = readNDJSONArcs(fb, add)
	}
	res.ttfb = fb.first
	switch {
	case errors.Is(err, errMismatch):
		res.err = err
	case errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
		res.err = fmt.Errorf("GET %s: deadline %v expired after %d arcs", u, deadline, res.arcs)
	case err != nil:
		res.err = err
	case resp.Trailer.Get("X-Kronlab-Complete") != "true":
		res.err = fmt.Errorf("GET %s: X-Kronlab-Complete %q after %d arcs", u, resp.Trailer.Get("X-Kronlab-Complete"), res.arcs)
	case resp.Trailer.Get("X-Kronlab-Arcs-Written") != strconv.FormatInt(res.arcs, 10):
		res.err = mismatch("GET %s: read %d arcs, X-Kronlab-Arcs-Written %q", u, res.arcs, resp.Trailer.Get("X-Kronlab-Arcs-Written"))
	}
	res.token = resp.Trailer.Get("X-Kronlab-Resume-Token")
	return res
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// setupServeTimed runs the serve set-up setupReps times, keeping the
// last server.
func setupServeTimed(o *options, rep *report, window bool) (*serveInputs, error) {
	var in *serveInputs
	err := timedSetup(o, rep, func() (err error) {
		if in != nil {
			in.srv.stop()
		}
		in, err = setupServe(o, window)
		return err
	})
	if err != nil {
		return nil, err
	}
	// kronserve inherits this process's environment and CPU set, so its
	// default GOMAXPROCS — and with it its default ranks — is ours.
	rep.addProc(procInfo{Name: "kronserve", GOMAXPROCS: runtime.GOMAXPROCS(0), Ranks: serverRanks()})
	return in, nil
}

// finishServe records the server's peak RSS and its /metrics counters,
// then stops it.
func finishServe(in *serveInputs, rep *report) {
	if rss, err := in.srv.peakRSS(); err == nil {
		rep.metrics["rss_peak_mb"] = metric{float64(rss) / (1 << 20), "MiB"}
	}
	for name, v := range scrapeMetrics(in.srv.base + "/metrics") {
		rep.detail[name] = v
	}
	in.srv.stop()
}

// runGenStream is the gen_stream workload: one connection, back-to-back
// full-product /gen streams at the server's default ranks, alternating
// binary (the pair) and ndjson (the smaller pair), each checked against
// the serial stream's rolling hash.
func runGenStream(o *options, rep *report) error {
	in, err := setupServeTimed(o, rep, false)
	if err != nil {
		return err
	}
	defer finishServe(in, rep)
	c := newClient(1)
	end := time.Now().Add(o.seconds)
	for i := 0; time.Now().Before(end); i++ {
		binaryFmt := i%2 == 0
		ref, path, kind := in.pairRef, pairPath, "binary"
		if !binaryFmt {
			ref, path, kind = in.smallRef, "a7/b7", "ndjson"
		}
		chk := ref.check()
		clk := startClock()
		res := fetchGen(c, in.srv.base+"/gen/"+path+"/edges?format="+kind, binaryFmt, o.deadlines.stream, chk.add)
		verified, ferr := chk.finish()
		if errors.Is(res.err, errMismatch) || ferr != nil {
			verified = 0
		}
		if res.err == nil && ferr == nil && verified != ref.total {
			res.err = mismatch("stream of %d arcs, closed form %d", verified, ref.total)
		}
		if ferr != nil && (res.err == nil || !errors.Is(res.err, errMismatch)) {
			res.err = ferr
		}
		_, steal := clk.share()
		rep.op(res.err)
		rep.hostSample(kind+"_s", kind+"_arcs_per_s", res.wall, steal, verified)
		if res.ttfb > 0 {
			rep.sample("ttfb_s", res.ttfb.Seconds())
		}
	}
	d := rep.detail
	rep.setHostMedians("binary_s", "binary_arcs_per_s")
	rep.setMedian(d, "ndjson_arcs_per_s", "ndjson_arcs_per_s_wall", "arcs/s", 1)
	rep.setMedian(d, "ttfb_ms_p50", "ttfb_s", "ms", 1e3)
	return nil
}

// runGenWindow is the gen_window workload: two connections, each a
// closed loop alternating a seeded /gen window (binary:ndjson 3:1,
// pair and chain in turn, every 4th window followed by its resume=
// continuation) with a /gt query checked against in-process ground
// truth. Windows, continuations included, lie inside one rank's range
// of the server's plan: a window across a rank boundary stalls at this
// server's default ranks (the defect gen_stream measures), and whether
// a time-bound run happens to draw one must not decide its failures.
func runGenWindow(o *options, rep *report) error {
	in, err := setupServeTimed(o, rep, true)
	if err != nil {
		return err
	}
	defer finishServe(in, rep)
	c := newClient(2)
	clock := startClock()
	end := clock.t0.Add(o.seconds)
	var wg sync.WaitGroup
	for conn := 0; conn < 2; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			windowClient(o, in, c, rep, rand.New(rand.NewSource(subSeed(o.seed, uint64(100+conn)))), end)
		}()
	}
	wg.Wait()
	// Windows last milliseconds, below the steal counter's 10 ms tick, so
	// their host time uses the steal share of the whole measured phase.
	elapsed, steal := clock.share()
	m, d := rep.metrics, rep.detail
	rep.setMedian(m, "op_ms_p50", "binary_window_s", "ms", 1e3*(1-steal))
	rep.setMedian(m, "arcs_per_s", "window_arcs_per_s", "arcs/s", 1/(1-steal))
	rep.setMedian(d, "op_ms_p50_wall", "binary_window_s", "ms", 1e3)
	rep.setMedian(d, "arcs_per_s_wall", "window_arcs_per_s", "arcs/s", 1)
	d["steal_share"] = metric{steal, "ratio"}
	for _, s := range []string{"window", "ttfb", "gt"} {
		rep.setMedian(d, s+"_ms_p50", s+"_s", "ms", 1e3)
		rep.setP99(d, s+"_ms_p99", s+"_s", "ms", 1e3)
	}
	rep.detail["req_per_s"] = metric{float64(rep.attempted-rep.failed) / elapsed.Seconds(), "req/s"}
	return nil
}

func windowClient(o *options, in *serveInputs, c *http.Client, rep *report, rng *rand.Rand, end time.Time) {
	size := o.sizes.window
	want := &windowCheck{}
	for i := 0; time.Now().Before(end); i++ {
		ch, path, ranks := in.pair, pairPath, in.pairRanks
		if i%8 >= 4 {
			ch, path, ranks = in.chain, chainPath, in.chainRanks
		}
		binaryFmt := i%4 != 3
		resume := i%4 == 1
		span := size
		if resume {
			span = 2 * size
		}
		offset := drawWindow(rng, ranks, span)
		q := url.Values{"offset": {strconv.FormatInt(offset, 10)}, "limit": {strconv.FormatInt(size, 10)}}
		token := window(o, in, c, rep, want, ch, path, q, offset, binaryFmt)
		if resume && token != "" {
			q := url.Values{"resume": {token}, "limit": {strconv.FormatInt(size, 10)}}
			window(o, in, c, rep, want, ch, path, q, offset+size, binaryFmt)
		}

		g := in.gt[i%len(in.gt)]
		if g.want == nil {
			g = degreeQuery(g, ch, rng)
		}
		ctx, cancel := context.WithTimeout(context.Background(), o.deadlines.gt)
		t := time.Now()
		got, err := getJSON(ctx, c, in.srv.base+"/gt/"+g.path)
		cancel()
		rep.sample("gt_s", time.Since(t).Seconds())
		if err == nil {
			err = checkGT(g, got)
		}
		rep.op(err)
	}
}

// window fetches one window starting at offset (named by q) and checks it
// arc by arc against core.Chain.ArcsFrom(offset). It returns the
// response's resume token.
func window(o *options, in *serveInputs, c *http.Client, rep *report, want *windowCheck, ch *core.Chain, path string, q url.Values, offset int64, binaryFmt bool) string {
	if !binaryFmt {
		q.Set("format", "ndjson")
	} else {
		q.Set("format", "binary")
	}
	if err := want.reset(ch, offset, o.sizes.window); err != nil {
		rep.op(err)
		return ""
	}
	res := fetchGen(c, in.srv.base+"/gen/"+path+"/edges?"+q.Encode(), binaryFmt, o.deadlines.window, want.add)
	if res.err == nil && res.arcs != want.arcs() {
		res.err = mismatch("window at %d: %d arcs, closed form %d", offset, res.arcs, want.arcs())
	}
	rep.op(res.err)
	rep.sample("window_s", res.wall.Seconds())
	if res.ttfb > 0 {
		rep.sample("ttfb_s", res.ttfb.Seconds())
	}
	if binaryFmt {
		verified := res.arcs
		if errors.Is(res.err, errMismatch) {
			verified = 0
		}
		rep.sample("binary_window_s", res.wall.Seconds())
		rep.sample("window_arcs_per_s", float64(verified)/res.wall.Seconds())
	}
	return res.token
}

// scrapeMetrics reads the serve-layer counters the benchmark reports
// from a /metrics page: the summary-cache hit ratio and the admission
// rejections.
func scrapeMetrics(u string) map[string]metric {
	resp, err := http.Get(u)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return metricsFrom(string(body))
}

// metricsFrom extracts the summary-cache hit ratio and the admission
// rejection count from a kronserve /metrics page.
func metricsFrom(page string) map[string]metric {
	vals := map[string]float64{}
	for _, line := range strings.Split(page, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			vals[name] = v
		}
	}
	out := map[string]metric{
		"serve.admission_rejected": {vals["kronserve_admission_rejected_total"], "count"},
	}
	if n := vals["kronserve_cache_hits_total"] + vals["kronserve_cache_misses_total"]; n > 0 {
		out["serve.cache_hit_ratio"] = metric{vals["kronserve_cache_hits_total"] / n, "ratio"}
	}
	return out
}
