package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"

	"github.com/reflex-go/reflex/internal/storage"
)

// encode appends the op's canonical bytes.
func (o op) encode(b []byte) []byte {
	b = append(b, byte(o.kind))
	return binary.LittleEndian.AppendUint32(b, o.block)
}

// opSequence encodes the first n ops of every generator a real-path
// workload's measured phase draws from.
func opSequence(wl string, seed uint64, n int) []byte {
	var b []byte
	switch wl {
	case "read_peak":
		g := &uniformGen{r: newRand(seed, 1), blocks: peakBlocks}
		for i := 0; i < n; i++ {
			b = g.next().encode(b)
		}
	case "qos_tenants":
		lc := &uniformGen{r: newRand(seed, 1), blocks: qosBlocks}
		for i := 0; i < n; i++ {
			b = lc.next().encode(b)
		}
		for t := 0; t < qosBETenants; t++ {
			g := newBEGen(seed, uint32(t), qosBETenants, qosBlocks, beReadPct(t))
			for i := 0; i < n/qosBETenants+1; i++ {
				b = g.next().encode(b)
			}
		}
	case "vol_hot":
		g := newVolGen(seed, volBlocks, volZipfS, volWritePct, volSnapEvery, volDepth)
		for i := 0; i < n; i++ {
			b = g.next().encode(b)
		}
	}
	return b
}

func TestSameSeedSameOps(t *testing.T) {
	const n = 3 * volSnapEvery * 100 / volWritePct // spans several snapshots
	for _, wl := range []string{"read_peak", "qos_tenants", "vol_hot"} {
		a, b := opSequence(wl, 7, n), opSequence(wl, 7, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op sequences", wl)
		}
		if bytes.Equal(a, opSequence(wl, 8, n)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", wl)
		}
	}
}

func TestVolGenSnapshotsAndWindow(t *testing.T) {
	g := newVolGen(3, volBlocks, volZipfS, volWritePct, volSnapEvery, volDepth)
	var recent []op // block ops since the last snapshot, newest last
	writes, snaps := 0, 0
	for i := 0; i < 4*volSnapEvery*100/volWritePct; i++ {
		o := g.next()
		if o.kind == opSnap {
			if writes != volSnapEvery*(snaps+1) {
				t.Fatalf("snapshot %d after %d writes, want %d", snaps, writes, volSnapEvery*(snaps+1))
			}
			snaps++
			recent = recent[:0]
			continue
		}
		if o.kind == opWrite {
			writes++
		}
		start := max(0, len(recent)-(volDepth-1))
		for _, p := range recent[start:] {
			if p.block == o.block && (p.kind == opWrite || o.kind == opWrite) {
				t.Fatalf("op %d: %v conflicts with in-window %v", i, o, p)
			}
		}
		recent = append(recent, o)
	}
	if snaps < 3 {
		t.Fatalf("only %d snapshots", snaps)
	}
}

func TestStampRoundTrip(t *testing.T) {
	p := make([]byte, blockBytes)
	stamp(p, 808, 42)
	if seq, ok := unstamp(p, 808); !ok || seq != 42 {
		t.Fatalf("unstamp = %d, %v", seq, ok)
	}
	if _, ok := unstamp(p, 816); ok {
		t.Fatal("block accepted at another LBA")
	}
	p[blockBytes-1] ^= 1
	if _, ok := unstamp(p, 808); ok {
		t.Fatal("block with a torn trailer accepted")
	}
}

// corruptBackend flips one byte of one block on every device read once
// armed.
type corruptBackend struct {
	storage.Backend
	off   int64
	armed atomic.Bool
	hits  atomic.Int64
}

func (b *corruptBackend) ReadAt(p []byte, off int64) (int, error) {
	n, err := b.Backend.ReadAt(p, off)
	if b.armed.Load() && off <= b.off && b.off < off+int64(n) {
		p[b.off-off] ^= 0xff
		b.hits.Add(1)
	}
	return n, err
}

// TestCorruptBlockIsCaught corrupts a block on the device under a
// read_peak run and checks that the run reports wrong bytes.
func TestCorruptBlockIsCaught(t *testing.T) {
	const seed = 5
	// Pick a block the measured stream reads early but set-up never
	// reads, so it cannot be in the read cache.
	warm := map[uint32]bool{}
	wg := &uniformGen{r: newRand(seed, 9), blocks: peakBlocks}
	for i := 0; i < peakWarmOps; i++ {
		warm[wg.next().block] = true
	}
	var target uint32
	for _, o := range workloadOps("read_peak", seed, 1000) {
		if !warm[o.block] {
			target = o.block
			break
		}
	}
	cb := &corruptBackend{off: int64(target)*blockBytes + 9}
	r, err := newRig("read_peak", seed, rigOpts{wrap: func(b storage.Backend) storage.Backend {
		cb.Backend = b
		return cb
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	cb.armed.Store(true)
	m := newMeter(0.5)
	if err := r.drive(m); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	r.account(rep, m)
	if cb.hits.Load() == 0 {
		t.Fatalf("block %d was never read from the device", target)
	}
	if m.wrong.Load() == 0 || rep.res.Correct || rep.res.Failed == 0 {
		t.Fatalf("corrupt block %d not reported: wrong=%d correct=%v failed=%d",
			target, m.wrong.Load(), rep.res.Correct, rep.res.Failed)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// benchmark's declaration at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in code, %d declared", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, decl.EndToEnd)
	check("per_layer", perLayer, decl.PerLayer)
}

// TestRealWorkloadsRunClean drives each real-path workload briefly and
// checks every read came back right; under -race it also covers the
// qos_tenants goroutines sharing the verification state.
func TestRealWorkloadsRunClean(t *testing.T) {
	for _, wl := range []string{"read_peak", "qos_tenants", "vol_hot"} {
		r, err := newRig(wl, 11, rigOpts{traced: true})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		m := newMeter(0.5)
		err = r.drive(m)
		r.close()
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if m.attempted.Load() == 0 || m.wrong.Load() != 0 || m.otherErr.Load() != 0 {
			t.Errorf("%s: attempted %d, wrong %d, other errors %d (%v)",
				wl, m.attempted.Load(), m.wrong.Load(), m.otherErr.Load(), m.wrongLog)
		}
	}
}

// TestVolResetBeforePoolRunsOut drives vol_hot past the point where its
// snapshot deletes leave the pool too full for another generation, and
// checks that the volume is reset before any write is refused and that
// the client-side pool model agrees with what the server freed.
func TestVolResetBeforePoolRunsOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs for several seconds")
	}
	r, err := newRig("vol_hot", 3, rigOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	m := newMeter(6)
	if err := r.drive(m); err != nil {
		t.Fatal(err)
	}
	if m.failed.Load() != 0 || m.wrong.Load() != 0 {
		t.Fatalf("failed %d (no space %d), wrong %d (%v)", m.failed.Load(), m.nospace.Load(), m.wrong.Load(), m.wrongLog)
	}
	if r.poolDrift != 0 {
		t.Fatalf("volume deletes freed %d extents more than the pool model held", r.poolDrift)
	}
	if r.resets == 0 {
		t.Skipf("no reset in %d snapshots; too slow a host to reach one", r.snaps)
	}
}
