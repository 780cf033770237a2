package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"kronlab/internal/core"
)

// errMismatch marks wrong output, as opposed to output that stopped
// early: a run with any mismatch is reported incorrect, not just failed.
var errMismatch = errors.New("output mismatch")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

// arcHash is an order-sensitive rolling hash over an arc sequence.
type arcHash uint64

const hashPrime = 0x100000001b3

func (h arcHash) add(u, v int64) arcHash {
	x := (uint64(h) ^ uint64(u)) * hashPrime
	return arcHash((x ^ uint64(v)) * hashPrime)
}

const hashSeed arcHash = 0xcbf29ce484222325

// streamRef is the expected serial arc stream of a product, kept as the
// rolling hash at every `every` arcs, so any prefix of a stream can be
// checked byte-exactly without holding the stream in memory.
type streamRef struct {
	ch    *core.Chain
	total int64
	every int64
	marks []arcHash // marks[i] = hash of the first (i+1)·every arcs
}

// newStreamRef walks the reference enumeration core.Chain.Arcs once.
func newStreamRef(ch *core.Chain, every int64) *streamRef {
	r := &streamRef{ch: ch, total: mustArcs(ch), every: every}
	h, n := hashSeed, int64(0)
	ch.Arcs(func(u, v int64) bool {
		h = h.add(u, v)
		n++
		if n%every == 0 {
			r.marks = append(r.marks, h)
		}
		return true
	})
	return r
}

// streamCheck verifies a stream against a streamRef as it arrives.
type streamCheck struct {
	ref *streamRef
	h   arcHash
	n   int64
}

func (r *streamRef) check() *streamCheck { return &streamCheck{ref: r, h: hashSeed} }

// add feeds the next received arc; it fails at the first checkpoint the
// stream disagrees with, or when the stream runs past the product.
func (c *streamCheck) add(u, v int64) error {
	if c.n >= c.ref.total {
		return mismatch("stream longer than the product's %d arcs", c.ref.total)
	}
	c.h = c.h.add(u, v)
	c.n++
	if c.n%c.ref.every == 0 && c.h != c.ref.marks[c.n/c.ref.every-1] {
		return mismatch("stream differs from the serial order within arcs [%d,%d)", c.n-c.ref.every, c.n)
	}
	return nil
}

// finish verifies the arcs after the last checkpoint by regenerating
// them from the closed-form seek position, so a stream cut anywhere is
// checked exactly. It returns the verified arc count.
func (c *streamCheck) finish() (int64, error) {
	tail := c.n % c.ref.every
	if tail == 0 {
		return c.n, nil
	}
	h := hashSeed
	if c.n >= c.ref.every {
		h = c.ref.marks[c.n/c.ref.every-1]
	}
	left := tail
	if _, err := c.ref.ch.ArcsFrom(c.n-tail, func(u, v int64) bool {
		h = h.add(u, v)
		left--
		return left > 0
	}); err != nil {
		return 0, err
	}
	if h != c.h {
		return 0, mismatch("stream differs from the serial order within arcs [%d,%d)", c.n-tail, c.n)
	}
	return c.n, nil
}

// windowCheck compares a window of the stream arc by arc against
// core.Chain.ArcsFrom(offset).
type windowCheck struct {
	want []int64 // u0, v0, u1, v1, …
	i    int
}

// reset points the check at a new window, reusing its buffer.
func (w *windowCheck) reset(ch *core.Chain, offset, limit int64) error {
	w.want, w.i = w.want[:0], 0
	_, err := ch.ArcsFrom(offset, func(u, v int64) bool {
		w.want = append(w.want, u, v)
		return int64(len(w.want)) < 2*limit
	})
	return err
}

func (w *windowCheck) arcs() int64 { return int64(len(w.want) / 2) }

func (w *windowCheck) add(u, v int64) error {
	if w.i >= len(w.want) {
		return mismatch("window longer than its %d arcs", w.arcs())
	}
	if w.want[w.i] != u || w.want[w.i+1] != v {
		return mismatch("window arc %d is (%d,%d), want (%d,%d)", w.i/2, u, v, w.want[w.i], w.want[w.i+1])
	}
	w.i += 2
	return nil
}

// readBinaryArcs decodes 16-byte little-endian (u, v) records from r and
// feeds them to add; it returns the arc count read. A trailing partial
// record is a mismatch.
func readBinaryArcs(r io.Reader, add func(u, v int64) error) (int64, error) {
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	buf := *bp
	var n int64
	var carry int
	for {
		k, err := r.Read(buf[carry:])
		k += carry
		whole := k - k%16
		for off := 0; off < whole; off += 16 {
			u := int64(binary.LittleEndian.Uint64(buf[off:]))
			v := int64(binary.LittleEndian.Uint64(buf[off+8:]))
			if aerr := add(u, v); aerr != nil {
				return n, aerr
			}
			n++
		}
		carry = copy(buf, buf[whole:k])
		if err == io.EOF {
			if carry != 0 {
				return n, mismatch("stream ends inside a record")
			}
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// readBufs recycles read buffers across the many short responses of a
// run, so the client's garbage does not add noise to what it times.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 1<<20); return &b }}

// readNDJSONArcs parses {"u":U,"v":V} lines from r.
func readNDJSONArcs(r io.Reader, add func(u, v int64) error) (int64, error) {
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	sc := bufio.NewScanner(r)
	sc.Buffer(*bp, len(*bp))
	var n int64
	for sc.Scan() {
		u, v, err := parseArcLine(sc.Bytes())
		if err != nil {
			return n, err
		}
		if err := add(u, v); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}

func parseArcLine(b []byte) (u, v int64, err error) {
	rest, ok := bytes.CutPrefix(b, []byte(`{"u":`))
	us, vs, ok2 := bytes.Cut(rest, []byte(`,"v":`))
	vs, ok3 := bytes.CutSuffix(vs, []byte(`}`))
	if !ok || !ok2 || !ok3 {
		return 0, 0, mismatch("malformed ndjson line %q", b)
	}
	if u, err = strconv.ParseInt(string(us), 10, 64); err == nil {
		v, err = strconv.ParseInt(string(vs), 10, 64)
	}
	if err != nil {
		return 0, 0, mismatch("malformed ndjson line %q", b)
	}
	return u, v, nil
}

// storeRef is what a complete store of a product must hold: the
// closed-form arc count and the arc-wise sums of the reference
// enumeration, mod 2^64.
type storeRef struct {
	arcs       int64
	sumU, sumV uint64
}

func newStoreRef(ch *core.Chain) storeRef {
	r := storeRef{arcs: mustArcs(ch)}
	ch.Arcs(func(u, v int64) bool {
		r.sumU += uint64(u)
		r.sumV += uint64(v)
		return true
	})
	return r
}

// checkStore verifies a store directory: the manifest's total and shard
// counts, each shard file's size, and the (Σu, Σv) of every record.
// Shards are summed two at a time.
func checkStore(dir string, ref storeRef) error {
	man, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		return fmt.Errorf("reading manifest: %w", err)
	}
	var counts []int64
	for _, line := range strings.Split(string(man), "\n") {
		if rest, ok := strings.CutPrefix(line, "count"); ok {
			for _, f := range strings.Fields(rest) {
				c, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return mismatch("manifest count %q", f)
				}
				counts = append(counts, c)
			}
		}
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != ref.arcs {
		return mismatch("manifest holds %d arcs, closed form says %d", total, ref.arcs)
	}
	type sums struct {
		u, v uint64
		err  error
	}
	res := make([]sums, len(counts))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, c := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			path := filepath.Join(dir, fmt.Sprintf("shard-%04d", i))
			fi, err := os.Stat(path)
			if err != nil {
				res[i].err = err
				return
			}
			if fi.Size() != 16*c {
				res[i].err = mismatch("shard %d is %d bytes, manifest says %d records", i, fi.Size(), c)
				return
			}
			f, err := os.Open(path)
			if err != nil {
				res[i].err = err
				return
			}
			defer f.Close()
			_, res[i].err = readBinaryArcs(f, func(u, v int64) error {
				res[i].u += uint64(u)
				res[i].v += uint64(v)
				return nil
			})
		}()
	}
	wg.Wait()
	var su, sv uint64
	for _, r := range res {
		if r.err != nil {
			return r.err
		}
		su += r.u
		sv += r.v
	}
	if su != ref.sumU || sv != ref.sumV {
		return mismatch("store sums (Σu, Σv) = (%d, %d), reference (%d, %d)", su, sv, ref.sumU, ref.sumV)
	}
	return nil
}
