package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kronlab/internal/core"
)

// krongenDefaultRanks is krongen's -ranks default; the store workloads
// run at it rather than pinning their own.
const krongenDefaultRanks = 4

// storeInputs are the factor files of the store and cluster workloads
// and the reference a finished store is checked against.
type storeInputs struct {
	a, b factor
	ch   *core.Chain
	ref  storeRef
}

func setupStore(o *options) (*storeInputs, error) {
	dir := filepath.Join(o.work, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	a, err := makeFactor(dir, "a", o.sizes.storeA, subSeed(o.seed, 1))
	if err != nil {
		return nil, err
	}
	b, err := makeFactor(dir, "b", o.sizes.storeB, subSeed(o.seed, 2))
	if err != nil {
		return nil, err
	}
	ch, err := chainOf(a, b)
	if err != nil {
		return nil, err
	}
	return &storeInputs{a: a, b: b, ch: ch, ref: newStoreRef(ch)}, nil
}

// runKrongen runs the store or cluster workload: back-to-back krongen
// generations of the same product into a fresh store directory, each
// checked against the closed form and removed before the next starts.
// cluster runs every op as two krongen processes on loopback TCP with
// -gomaxprocs 1 each.
func runKrongen(o *options, rep *report, cluster bool) error {
	var in *storeInputs
	err := timedSetup(o, rep, func() (err error) {
		in, err = setupStore(o)
		return err
	})
	if err != nil {
		return err
	}
	bin := filepath.Join(o.bin, "krongen")
	deadline := o.deadlines.krongen
	base := []string{"-a", in.a.path, "-b", in.b.path, "-mode", "1d"}
	// Op 0 is a warm-up — checked and counted like every op, but not
	// timed: the first store of a run pays for cold page-cache and
	// allocator state that the rest do not.
	var end time.Time
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		dir := filepath.Join(o.work, fmt.Sprintf("store-%d", i))
		var argvs [][]string
		if cluster {
			ports, err := freePorts(2)
			if err != nil {
				return err
			}
			peers := fmt.Sprintf("127.0.0.1:%d,127.0.0.1:%d", ports[0], ports[1])
			for self := 0; self < 2; self++ {
				argvs = append(argvs, append(append([]string(nil), base...),
					"-store", dir, "-cluster-peers", peers, "-cluster-self", fmt.Sprint(self), "-gomaxprocs", "1"))
			}
		} else {
			argvs = [][]string{append(append([]string(nil), base...), "-store", dir)}
		}
		c := startClock()
		runs := runAll(bin, argvs, deadline)
		wall, steal := c.share()
		var rss int64
		var opErr error
		for p, r := range runs {
			rss += r.maxRSS
			if r.err != nil && opErr == nil {
				opErr = r.err
			}
			name := "krongen"
			if cluster {
				name = fmt.Sprintf("krongen cluster proc %d", p)
			}
			rep.addProc(procInfo{Name: name, GOMAXPROCS: reportedGOMAXPROCS(r.stderr), Ranks: krongenDefaultRanks / len(runs)})
		}
		if opErr == nil {
			opErr = checkStore(dir, in.ref)
		}
		rep.op(opErr)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if i == 0 {
			end = time.Now().Add(o.seconds)
			continue
		}
		verified := int64(0)
		if opErr == nil {
			verified = in.ref.arcs
		}
		rep.hostSample("op_s", "arcs_per_s", wall, steal, verified)
		rep.sample("rss", float64(rss))
	}
	rep.setHostMedians("op_s", "arcs_per_s")
	rep.setMedian(rep.metrics, "rss_peak_mb", "rss", "MiB", 1.0/(1<<20))
	return nil
}
