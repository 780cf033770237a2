// Command layerbench is kronlab's layer-budget benchmark. It drives the
// two programs users run — krongen writing a store, and kronserve
// answering /gen and /gt — through four workloads, checks every output
// against the closed forms, and reports end-to-end figures; with -trace 1
// it instead times calls into each library layer in-process and reports
// per-layer figures.
//
// Run it from the root of a kronlab checkout through run.sh, which
// builds the benchmark and the programs under test first:
//
//	bash layerbench/run.sh --workload store --seed 1 --seconds 20 --trace 0
//
// Workloads: store, cluster, gen_stream, gen_window (see README.md).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable table, and a fuller record (provenance, the workload's
// own figures, the spans of a traced run) is written under -work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// options are one run's settings.
type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	smoke     bool
	bin, work string
	sizes     sizes
	deadlines deadlines
}

// deadlines bound every op; an op still running at its deadline is
// cancelled (requests) or killed (process groups) and counted failed.
type deadlines struct {
	krongen time.Duration // one store or cluster generation
	stream  time.Duration // one full-product /gen stream
	window  time.Duration // one /gen window
	gt      time.Duration // one /gt query
}

var fullDeadlines = deadlines{krongen: 30 * time.Second, stream: 4 * time.Second,
	window: 300 * time.Millisecond, gt: time.Second}

var smokeDeadlines = deadlines{krongen: 10 * time.Second, stream: time.Second,
	window: time.Second, gt: time.Second}

// maxRecordedSpans caps the spans written to a run's record; self times
// always cover all of them.
const maxRecordedSpans = 10000

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

var workloads = map[string]func(*options, *report) error{
	"store":      func(o *options, r *report) error { return runKrongen(o, r, false) },
	"cluster":    func(o *options, r *report) error { return runKrongen(o, r, true) },
	"gen_stream": runGenStream,
	"gen_window": runGenWindow,
}

func main() {
	o := &options{}
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "store, cluster, gen_stream or gen_window")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&seconds, "seconds", 20, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 = time each library layer in-process instead of the workload")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny factors and short deadlines: every path in seconds")
	flag.StringVar(&o.bin, "bin", "", "directory holding the krongen and kronserve binaries")
	flag.StringVar(&o.work, "work", "", "scratch directory for inputs, stores and results")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	o.sizes, o.deadlines = fullSizes, fullDeadlines
	if o.smoke {
		o.sizes, o.deadlines = smokeSizes, smokeDeadlines
	}
	run, ok := workloads[o.workload]
	if !ok || o.bin == "" || o.work == "" || seconds <= 0 {
		fmt.Fprintln(os.Stderr, "layerbench: need -workload (store|cluster|gen_stream|gen_window), -bin, -work and -seconds > 0")
		os.Exit(2)
	}

	o.work = filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.RemoveAll(o.work)
		os.Exit(130)
	}()

	rep, err := execute(o, run)
	killAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := emit(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: %v\n", err)
		os.Exit(1)
	}
}

// execute runs the workload (or, traced, the layer suite) in the work
// directory o.work, which it removes afterwards; the results go to a
// sibling directory.
func execute(o *options, run func(*options, *report) error) (*report, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.work)
	rep := newReport()
	if o.trace {
		return rep, runLayers(o, rep)
	}
	return rep, run(o, rep)
}

// timedSetup runs one workload's set-up setupReps times and reports the
// median host time as setup_s.
func timedSetup(o *options, rep *report, setup func() error) error {
	var host, wall []float64
	for i := 0; i < setupReps; i++ {
		c := startClock()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		w, s := c.share()
		host = append(host, w.Seconds()*(1-s))
		wall = append(wall, w.Seconds())
	}
	dst := rep.metrics
	if o.trace {
		dst = rep.detail
	}
	dst["setup_s"] = metric{median(host), "s"}
	rep.detail["setup_s_wall"] = metric{median(wall), "s"}
	return nil
}

// emit prints the table, writes the full record and prints the result
// line last.
func emit(o *options, rep *report) error {
	if rep.attempted == 0 {
		return fmt.Errorf("%s: no op ran in the measured time", o.workload)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, name := range want {
		if _, ok := rep.metrics[name]; !ok {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, name)
		}
	}
	rep.detail["failed_ratio"] = metric{float64(rep.failed) / float64(rep.attempted), "ratio"}
	prov := provenance(o, rep)
	fmt.Printf("layerbench %s seed=%d trace=%v smoke=%v  attempted=%d failed=%d correct=%v\n",
		o.workload, o.seed, o.trace, o.smoke, rep.attempted, rep.failed, rep.correct)
	for _, k := range sortedKeys(rep.metrics) {
		fmt.Printf("  %-32s %16.6g %s\n", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	for _, k := range sortedKeys(rep.detail) {
		fmt.Printf("  %-32s %16.6g %s  (not gated)\n", k, rep.detail[k].Value, rep.detail[k].Unit)
	}
	var counts []string
	for _, k := range sortedKeys(rep.samples) {
		counts = append(counts, fmt.Sprintf("%s=%d", k, len(rep.samples[k])))
	}
	if len(counts) > 0 {
		fmt.Printf("  samples: %s\n", strings.Join(counts, " "))
	}
	for _, e := range rep.errs {
		fmt.Printf("  failure: %s\n", e)
	}
	for _, p := range rep.procs {
		label := ""
		if p.Timeslicing {
			label = "  TIMESLICING"
		}
		fmt.Printf("  process %s: GOMAXPROCS=%d ranks=%d%s\n", p.Name, p.GOMAXPROCS, p.Ranks, label)
	}
	fmt.Printf("  provenance: %s\n", mustJSON(prov))

	record := map[string]any{
		"provenance": prov, "correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed,
		"metrics": rep.metrics, "detail": rep.detail, "failures": rep.errs, "processes": rep.procs, "samples": rep.samples,
		"self_time_ns": selfTimes(rep.spans), "spans": rep.spans[:min(len(rep.spans), maxRecordedSpans)],
	}
	resDir := filepath.Join(filepath.Dir(o.work), "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	if err := os.WriteFile(filepath.Join(resDir, name), []byte(mustJSON(record)+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Println(mustJSON(map[string]any{
		"correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": rep.metrics,
	}))
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
