package main

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// procInfo is the provenance of one process under test.
type procInfo struct {
	Name        string `json:"name"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Ranks       int    `json:"ranks,omitempty"`
	Timeslicing bool   `json:"timeslicing"` // GOMAXPROCS > NumCPU
}

// report collects a run's op outcomes and figures. Ops may be recorded
// from several client goroutines.
type report struct {
	mu        sync.Mutex
	correct   bool
	attempted int64
	failed    int64
	errs      []string // the first few failure messages
	samples   map[string][]float64
	metrics   map[string]metric // end-to-end (gated) or per-layer
	detail    map[string]metric // the workload's own figures, not gated
	procs     []procInfo
	spans     []span
}

func newReport() *report {
	return &report{correct: true, samples: map[string][]float64{},
		metrics: map[string]metric{}, detail: map[string]metric{}}
}

// op records one operation's outcome: err == nil is a success; any error
// is a failure, and a mismatch also marks the run incorrect.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if errors.Is(err, errMismatch) {
		r.correct = false
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// sample appends one observation to a named series.
func (r *report) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *report) series(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[name]...)
}

// hostSample records one op that delivered arcs verified arcs in wall
// time while the hypervisor took the given share of the CPUs: series
// name gets its host time in seconds and rate its arcs per host second;
// name+"_wall" and rate+"_wall" get the wall-clock twins.
func (r *report) hostSample(name, rate string, wall time.Duration, steal float64, arcs int64) {
	host := wall.Seconds() * (1 - steal)
	r.sample(name, host)
	r.sample(name+"_wall", wall.Seconds())
	r.sample(rate, float64(arcs)/host)
	r.sample(rate+"_wall", float64(arcs)/wall.Seconds())
	r.sample("steal", steal)
}

// setHostMedians reports the gated op_ms_p50 and arcs_per_s from the
// host-time series, and their wall-clock twins and the median steal
// share as ungated figures.
func (r *report) setHostMedians(opSeries, rateSeries string) {
	r.setMedian(r.metrics, "op_ms_p50", opSeries, "ms", 1e3)
	r.setMedian(r.metrics, "arcs_per_s", rateSeries, "arcs/s", 1)
	r.setMedian(r.detail, "op_ms_p50_wall", opSeries+"_wall", "ms", 1e3)
	r.setMedian(r.detail, "arcs_per_s_wall", rateSeries+"_wall", "arcs/s", 1)
	r.setMedian(r.detail, "steal_share", "steal", "ratio", 1)
}

// setMedian reports the median of a series into dst, if it has samples.
func (r *report) setMedian(dst map[string]metric, name, series, unit string, scale float64) {
	if xs := r.series(series); len(xs) > 0 {
		dst[name] = metric{median(xs) * scale, unit}
	}
}

// setP99 reports the p99 of a series into dst when enough samples lie
// beyond it (see p99); otherwise the metric is left out.
func (r *report) setP99(dst map[string]metric, name, series, unit string, scale float64) {
	if v, ok := p99(r.series(series)); ok {
		dst[name] = metric{v * scale, unit}
	}
}

// addProc records a process under test once, labelling it timeslicing
// when it runs more OS threads than there are CPUs.
func (r *report) addProc(p procInfo) {
	p.Timeslicing = p.GOMAXPROCS > runtime.NumCPU()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range r.procs {
		if q == p {
			return
		}
	}
	r.procs = append(r.procs, p)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
