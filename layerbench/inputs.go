package main

import (
	"fmt"
	"os"
	"path/filepath"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// sizes are the factor scales of every workload. RMAT Graph500 factors
// at scale s have 2^s vertices and at most 16·2^s edges.
type sizes struct {
	storeA int // store and cluster: storeA ⊗ storeB
	storeB int
	binary int // gen_stream binary streams and gen_window pair windows
	ndjson int // gen_stream ndjson streams
	chain  int // gen_window: the k=3 power chain of this scale
	window int64
}

var fullSizes = sizes{storeA: 9, storeB: 9, binary: 8, ndjson: 7, chain: 6, window: 65536}

// smokeSizes finish every workload in seconds; they exercise the same
// paths on products of a few thousand arcs.
var smokeSizes = sizes{storeA: 5, storeB: 5, binary: 5, ndjson: 4, chain: 3, window: 64}

// factor is one generated factor graph and the edge-list file the
// programs under test read it from.
type factor struct {
	name string
	g    *graph.Graph
	path string
}

// subSeed derives the seed of one factor from the run seed (splitmix64),
// so factors of one run differ from each other and from other runs.
func subSeed(seed int64, k uint64) int64 {
	z := uint64(seed) + k*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// makeFactor samples a Graph500 RMAT factor and writes it as an edge list
// under dir.
func makeFactor(dir, name string, scale int, seed int64) (factor, error) {
	g, err := gen.RMAT(gen.Graph500Params(scale, seed))
	if err != nil {
		return factor{}, err
	}
	path := filepath.Join(dir, name+".txt")
	f, err := os.Create(path)
	if err != nil {
		return factor{}, err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return factor{}, err
	}
	if err := f.Close(); err != nil {
		return factor{}, err
	}
	// The reference is built from the file, as the programs build theirs:
	// the reader takes the vertex count from the largest id, which can be
	// below the generator's 2^scale and changes every product id.
	rg, err := graph.LoadUndirected(path)
	if err != nil {
		return factor{}, err
	}
	return factor{name: name, g: rg, path: path}, nil
}

// chainOf builds the reference product of the given factors.
func chainOf(fs ...factor) (*core.Chain, error) {
	gs := make([]*graph.Graph, len(fs))
	for i, f := range fs {
		gs[i] = f.g
	}
	return core.NewChain(gs...)
}

// mustArcs returns the closed-form arc count of ch.
func mustArcs(ch *core.Chain) int64 {
	n, err := ch.NumArcs()
	if err != nil {
		panic(fmt.Sprintf("arc count: %v", err))
	}
	return n
}
