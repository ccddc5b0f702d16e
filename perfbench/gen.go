package main

import (
	"encoding/binary"
	"math/rand/v2"
)

// Every 4 KiB block the benchmark writes carries its own address and a
// sequence number, at both ends of the block, so a read can be checked
// without any other state than the expected sequence number:
//
//	[0:8)      LBA (512-byte units) of the block's first sector
//	[8:16)     sequence number (0 = preloaded, never rewritten)
//	[4080:4088) LBA again
//	[4088:4096) sequence number again
const (
	blockBytes   = 4096
	sectorsPerBk = blockBytes / 512
)

// stamp writes the self-describing header and trailer into a 4 KiB block.
func stamp(p []byte, lba uint32, seq uint64) {
	binary.LittleEndian.PutUint64(p[0:], uint64(lba))
	binary.LittleEndian.PutUint64(p[8:], seq)
	binary.LittleEndian.PutUint64(p[blockBytes-16:], uint64(lba))
	binary.LittleEndian.PutUint64(p[blockBytes-8:], seq)
}

// unstamp returns the sequence number a block carries, and false when the
// block is short, does not carry lba, or its two copies disagree.
func unstamp(p []byte, lba uint32) (uint64, bool) {
	if len(p) != blockBytes {
		return 0, false
	}
	seq := binary.LittleEndian.Uint64(p[8:])
	ok := binary.LittleEndian.Uint64(p[0:]) == uint64(lba) &&
		binary.LittleEndian.Uint64(p[blockBytes-16:]) == uint64(lba) &&
		binary.LittleEndian.Uint64(p[blockBytes-8:]) == seq
	return seq, ok
}

// opKind is what one generated operation does.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	// opSnap is vol_hot's rolling-backup step: drain the in-flight
	// window, snapshot the volume and delete all but the newest
	// snapshots.
	opSnap
)

// op is one generated operation on a 4 KiB block of the workload's span.
type op struct {
	kind  opKind
	block uint32
}

// newRand returns the generator for one stream of a workload: the seed
// selects the run, stream separates independent generators in it.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// uniformGen draws reads uniformly over blocks blocks (read_peak, and the
// LC tenant of qos_tenants).
type uniformGen struct {
	r      *rand.Rand
	blocks uint32
}

func (g *uniformGen) next() op {
	return op{kind: opRead, block: uint32(g.r.Uint64N(uint64(g.blocks)))}
}

// beGen is one best-effort tenant of qos_tenants: closed loop, one
// request outstanding. It reads anywhere in the span but writes only the
// blocks it owns (block % tenants == id), so no two writes to a block are
// ever in flight together and every read has a bounded set of correct
// answers.
type beGen struct {
	r         *rand.Rand
	blocks    uint32
	id        uint32
	tenants   uint32
	readPct   int
	ownBlocks uint32
}

func newBEGen(seed uint64, id, tenants, blocks uint32, readPct int) *beGen {
	return &beGen{
		r: newRand(seed, 1000+uint64(id)), blocks: blocks, id: id, tenants: tenants,
		readPct: readPct, ownBlocks: (blocks - id + tenants - 1) / tenants,
	}
}

func (g *beGen) next() op {
	if g.r.IntN(100) < g.readPct {
		return op{kind: opRead, block: uint32(g.r.Uint64N(uint64(g.blocks)))}
	}
	return op{kind: opWrite, block: g.id + g.tenants*uint32(g.r.Uint64N(uint64(g.ownBlocks)))}
}

// volGen is vol_hot's single closed-loop stream: Zipf-skewed block
// choice (through a seeded permutation, so hot blocks are spread across
// extents), writePct% writes, and an opSnap after every snapEvery
// writes. It never places two ops on one block within depth consecutive
// ops if either is a write: the closed loop keeps at most depth ops in flight
// and they are always the last depth sent, so a read never races a
// write to its block and has exactly one correct answer. A conflicting
// draw is redrawn, which depends only on the sequence, not on timing.
type volGen struct {
	r         *rand.Rand
	zipf      *rand.Zipf
	perm      []uint32
	writePct  int
	snapEvery int
	writes    int
	pendSnap  bool

	window  []op // last depth-1 block ops, oldest first (ring)
	wpos    int
	readers []uint16 // in-window reads per block
	writers []uint16 // in-window writes per block
}

func newVolGen(seed uint64, blocks uint32, zipfS float64, writePct, snapEvery, depth int) *volGen {
	r := newRand(seed, 2)
	perm := make([]uint32, blocks)
	for i := range perm {
		perm[i] = uint32(i)
	}
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	g := &volGen{
		r: r, zipf: rand.NewZipf(r, zipfS, 1, uint64(blocks-1)), perm: perm,
		writePct: writePct, snapEvery: snapEvery,
		window:  make([]op, depth-1),
		readers: make([]uint16, blocks),
		writers: make([]uint16, blocks),
	}
	for i := range g.window {
		g.window[i] = op{kind: opSnap} // empty slot
	}
	return g
}

func (g *volGen) conflicts(o op) bool {
	if o.kind == opWrite {
		return g.readers[o.block] > 0 || g.writers[o.block] > 0
	}
	return g.writers[o.block] > 0
}

func (g *volGen) next() op {
	if g.pendSnap {
		g.pendSnap = false
		// The closed loop drains every in-flight op before snapshotting, so
		// the conflict window empties too.
		for i, w := range g.window {
			g.forget(w)
			g.window[i] = op{kind: opSnap}
		}
		return op{kind: opSnap}
	}
	kind := opRead
	if g.r.IntN(100) < g.writePct {
		kind = opWrite
	}
	o := op{kind: kind, block: g.perm[g.zipf.Uint64()]}
	for g.conflicts(o) {
		o.block = g.perm[g.zipf.Uint64()]
	}
	g.forget(g.window[g.wpos])
	g.window[g.wpos] = o
	g.wpos = (g.wpos + 1) % len(g.window)
	if o.kind == opWrite {
		g.writers[o.block]++
		g.writes++
		g.pendSnap = g.writes%g.snapEvery == 0
	} else {
		g.readers[o.block]++
	}
	return o
}

func (g *volGen) forget(o op) {
	switch o.kind {
	case opRead:
		g.readers[o.block]--
	case opWrite:
		g.writers[o.block]--
	}
}
