package main

import (
	"os/exec"
	"testing"
	"time"
)

// TestSmoke runs every workload, and the traced layer suite, on tiny
// factors for about a second each: the whole benchmark end to end, with
// the real krongen and kronserve binaries.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs krongen and kronserve")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "kronlab/cmd/krongen", "kronlab/cmd/kronserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the programs under test: %v\n%s", err, out)
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && name != "store" {
				continue // the layer suite does not depend on the workload
			}
			o := &options{workload: name, seed: 3, seconds: time.Second, trace: trace, smoke: true,
				bin: bin, work: t.TempDir(), sizes: smokeSizes, deadlines: smokeDeadlines}
			rep, err := execute(o, run)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.correct || rep.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failures %q", name, trace, rep.correct, rep.attempted, rep.errs)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, m := range want {
				if _, ok := rep.metrics[m]; !ok {
					t.Errorf("%s trace=%v: %s missing", name, trace, m)
				}
			}
		}
	}
}
