package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// provenance records what produced a result: the seed, the source
// revision, the toolchain, and the machine shape.
func provenance(o *options, rep *report) map[string]any {
	p := map[string]any{
		"seed":                 o.seed,
		"workload":             o.workload,
		"trace":                o.trace,
		"smoke":                o.smoke,
		"seconds":              o.seconds.Seconds(),
		"commit":               commit(),
		"source_digest":        sourceDigest("."),
		"go_version":           runtime.Version(),
		"nproc":                runtime.NumCPU(),
		"benchmark_gomaxprocs": runtime.GOMAXPROCS(0),
		"l3_cache":             l3Size(),
		"processes":            rep.procs,
	}
	var st syscall.Statfs_t
	if syscall.Statfs(filepath.Dir(o.work), &st) == nil {
		p["free_disk_gib"] = float64(st.Bavail) * float64(st.Bsize) / (1 << 30)
	}
	return p
}

// commit is the checkout's git revision, or "unknown" outside a git
// repository (the source digest still identifies the code).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under root, in path
// order, so two results can be matched to the same code without git.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		h.Write([]byte(path + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func l3Size() string {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
