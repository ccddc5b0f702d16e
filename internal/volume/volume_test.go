package volume

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

// testMgr builds a manager over a fresh Mem backend with small extents
// (16 blocks = 8 KiB) so a few writes exercise multi-extent paths.
func testMgr(t testing.TB, poolExtents int) *Manager {
	t.Helper()
	const extBlocks = 16
	blocks := uint64(poolExtents * extBlocks)
	m, err := NewManager(Config{
		Backend:      storage.NewMem(int64(blocks) * protocol.BlockSize),
		FirstBlock:   0,
		Blocks:       blocks,
		ExtentBlocks: extBlocks,
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func pat(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestVolumeThinReadZeros(t *testing.T) {
	m := testMgr(t, 64)
	v, err := m.Create("v0", 1024)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	got[17] = 0xFF
	if err := v.ReadAt(got, 123*protocol.BlockSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("unwritten volume read nonzero bytes")
	}
	if m.Pool().Allocated() != 0 {
		t.Fatalf("thin volume allocated %d extents before any write", m.Pool().Allocated())
	}
}

func TestVolumeWriteReadBack(t *testing.T) {
	m := testMgr(t, 64)
	v, _ := m.Create("v0", 1024)
	// Straddle three 8 KiB extents with one write at an odd offset.
	data := pat(3, 20_000)
	off := int64(5 * 512)
	if err := v.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := v.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	// Bytes before the write still read zero.
	head := make([]byte, off)
	if err := v.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, make([]byte, off)) {
		t.Fatal("bytes before first write not zero")
	}
	if a := m.Pool().Allocated(); a != 3 {
		t.Fatalf("allocated %d extents, want 3", a)
	}
}

func TestVolumeRange(t *testing.T) {
	m := testMgr(t, 8)
	v, _ := m.Create("v0", 64)
	if err := v.WriteAt(make([]byte, 1024), 64*protocol.BlockSize-512); err != ErrRange {
		t.Fatalf("overflow write: got %v, want ErrRange", err)
	}
	if err := v.ReadAt(make([]byte, 1024), -1); err != ErrRange {
		t.Fatalf("negative read: got %v, want ErrRange", err)
	}
}

func TestVolumeNoSpace(t *testing.T) {
	m := testMgr(t, 2)
	v, _ := m.Create("v0", 1024) // thin: logical far exceeds pool
	if err := v.WriteAt(make([]byte, 2*16*512), 0); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteAt([]byte{1}, 3*16*512); err != ErrNoSpace {
		t.Fatalf("exhausted pool: got %v, want ErrNoSpace", err)
	}
}

func TestSnapshotCoWIsolation(t *testing.T) {
	m := testMgr(t, 64)
	v, _ := m.Create("v0", 1024)
	before := pat(1, 8192)
	if err := v.WriteAt(before, 0); err != nil {
		t.Fatal(err)
	}
	gen, err := m.Snapshot("v0")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first snapshot gen = %d, want 1", gen)
	}
	// Overwrite post-snapshot: live changes, snapshot image must not.
	after := pat(9, 8192)
	if err := v.WriteAt(after, 0); err != nil {
		t.Fatal(err)
	}
	live := make([]byte, 8192)
	snap := make([]byte, 8192)
	if err := v.ReadAt(live, 0); err != nil {
		t.Fatal(err)
	}
	if err := v.ReadAtGen(snap, 0, gen); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, after) {
		t.Fatal("live image lost post-snapshot write")
	}
	if !bytes.Equal(snap, before) {
		t.Fatal("snapshot image changed after CoW write")
	}
}

func TestCloneWritableAndIndependent(t *testing.T) {
	m := testMgr(t, 64)
	v, _ := m.Create("src", 1024)
	base := pat(5, 16384)
	if err := v.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	gen, _ := m.Snapshot("src")
	c, err := m.Clone("src", gen, "clone")
	if err != nil {
		t.Fatal(err)
	}
	// Clone starts as the snapshot image.
	got := make([]byte, len(base))
	if err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatal("clone does not match snapshot image")
	}
	// Writes to the clone leave source and snapshot untouched, and vice
	// versa.
	if err := c.WriteAt(pat(77, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteAt(pat(99, 4096), 8192); err != nil {
		t.Fatal(err)
	}
	if err := v.ReadAtGen(got, 0, gen); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatal("snapshot image disturbed by clone/source writes")
	}
	cGot := make([]byte, 4096)
	if err := c.ReadAt(cGot, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cGot, base[8192:8192+4096]) {
		t.Fatal("source write leaked into clone")
	}
}

func TestDiffEnumeratesWindow(t *testing.T) {
	m := testMgr(t, 64)
	v, _ := m.Create("v0", 2048)
	eb := int64(16 * 512)
	w := func(ext int) {
		if err := v.WriteAt([]byte{0xAB}, int64(ext)*eb); err != nil {
			t.Fatal(err)
		}
	}
	w(0)
	w(1)
	g1, _ := m.Snapshot("v0") // gen 1 holds {0,1}
	w(1)                      // CoW
	w(5)
	g2, _ := m.Snapshot("v0") // gen 2 holds {1,5}
	w(7)
	d, err := v.Diff(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 5}; !equalU32(d, want) {
		t.Fatalf("Diff(%d,%d) = %v, want %v", g1, g2, d, want)
	}
	// Diff to the current generation includes live writes.
	d, err = v.Diff(g2, v.Gen())
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{7}; !equalU32(d, want) {
		t.Fatalf("Diff(%d,cur) = %v, want %v", g2, d, want)
	}
	// Full diff from birth covers everything ever written.
	d, err = v.Diff(0, v.Gen())
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{0, 1, 5, 7}; !equalU32(d, want) {
		t.Fatalf("Diff(0,cur) = %v, want %v", d, want)
	}
	if _, err := v.Diff(5, 99); err == nil {
		t.Fatal("Diff beyond current gen succeeded")
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTrimFreesAndReadsZero(t *testing.T) {
	m := testMgr(t, 64)
	v, _ := m.Create("v0", 1024)
	eb := int64(16 * 512)
	if err := v.WriteAt(pat(1, int(4*eb)), 0); err != nil {
		t.Fatal(err)
	}
	if a := m.Pool().Allocated(); a != 4 {
		t.Fatalf("allocated %d, want 4", a)
	}
	// Trim the middle two extents; partial edges must be left alone.
	freed := v.Trim(eb-512, 2*eb+1024+512)
	if freed != 2 {
		t.Fatalf("freed %d extents, want 2", freed)
	}
	if a := m.Pool().Allocated(); a != 2 {
		t.Fatalf("allocated %d after trim, want 2", a)
	}
	got := make([]byte, 4*eb)
	if err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := pat(1, int(4*eb))
	for i := eb; i < 3*eb; i++ {
		want[i] = 0
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trim read-back mismatch")
	}
}

func TestTrimOverSnapshotIsHole(t *testing.T) {
	m := testMgr(t, 64)
	v, _ := m.Create("v0", 1024)
	eb := int64(16 * 512)
	base := pat(3, int(eb))
	if err := v.WriteAt(base, 0); err != nil {
		t.Fatal(err)
	}
	gen, _ := m.Snapshot("v0")
	// Trim post-snapshot: live reads zeros, the snapshot keeps its data,
	// no extent is freed (the layer still owns it).
	if freed := v.Trim(0, eb); freed != 0 {
		t.Fatalf("trim over snapshotted extent freed %d", freed)
	}
	got := make([]byte, eb)
	if err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, eb)) {
		t.Fatal("trimmed extent not reading zeros")
	}
	if err := v.ReadAtGen(got, 0, gen); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatal("snapshot lost data to a live trim")
	}
	// Writing after the trim materializes a fresh zero-based extent.
	if err := v.WriteAt([]byte{0xEE}, 100); err != nil {
		t.Fatal(err)
	}
	if err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[100] != 0xEE || got[0] != 0 || got[101] != 0 {
		t.Fatal("write-after-trim resurrected snapshot bytes")
	}
}

func TestDeleteReclaims(t *testing.T) {
	m := testMgr(t, 64)
	v, _ := m.Create("v0", 1024)
	eb := int64(16 * 512)
	if err := v.WriteAt(pat(1, int(2*eb)), 0); err != nil {
		t.Fatal(err)
	}
	gen, _ := m.Snapshot("v0")
	if err := v.WriteAt(pat(2, int(2*eb)), 0); err != nil {
		t.Fatal(err)
	}
	c, _ := m.Clone("v0", gen, "c0")
	if err := c.WriteAt(pat(9, int(eb)), 4*eb); err != nil {
		t.Fatal(err)
	}
	// 2 (snap layer) + 2 (v live CoW) + 1 (clone live) allocated.
	if a := m.Pool().Allocated(); a != 5 {
		t.Fatalf("allocated %d, want 5", a)
	}
	// Deleting the source frees its live extents but NOT the snapshot
	// layer — the clone's chain still needs it.
	if _, err := m.Delete("v0", 0); err != nil {
		t.Fatal(err)
	}
	if a := m.Pool().Allocated(); a != 3 {
		t.Fatalf("allocated %d after source delete, want 3", a)
	}
	got := make([]byte, 2*eb)
	if err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat(1, int(2*eb))) {
		t.Fatal("clone lost shared extents when source died")
	}
	// Deleting the clone cascades: everything returns to the pool.
	if _, err := m.Delete("c0", 0); err != nil {
		t.Fatal(err)
	}
	if a := m.Pool().Allocated(); a != 0 {
		t.Fatalf("allocated %d after full delete, want 0", a)
	}
	if _, ok := m.ByHandle(v.Handle()); ok {
		t.Fatal("dead handle still resolves")
	}
	if err := v.ReadAt(got, 0); err != ErrDead {
		t.Fatalf("read on deleted volume: %v, want ErrDead", err)
	}
}

func TestSnapshotDeleteKeepsChainUntilUnused(t *testing.T) {
	m := testMgr(t, 64)
	v, _ := m.Create("v0", 1024)
	eb := int64(16 * 512)
	if err := v.WriteAt(pat(1, int(eb)), 0); err != nil {
		t.Fatal(err)
	}
	gen, _ := m.Snapshot("v0")
	// Deleting the snapshot alone frees nothing (live chain still walks
	// the layer) but unregisters the generation.
	if freed, err := m.Delete("v0", gen); err != nil || freed != 0 {
		t.Fatalf("snapshot delete: freed %d err %v", freed, err)
	}
	got := make([]byte, eb)
	if err := v.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pat(1, int(eb))) {
		t.Fatal("live image lost data when snapshot unregistered")
	}
	if len(v.Snapshots()) != 0 {
		t.Fatal("snapshot still listed after delete")
	}
	// CoW-overwriting then deleting the volume reclaims everything.
	if err := v.WriteAt(pat(2, int(eb)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete("v0", 0); err != nil {
		t.Fatal(err)
	}
	if a := m.Pool().Allocated(); a != 0 {
		t.Fatalf("allocated %d after delete, want 0", a)
	}
}

// TestRollingSnapshotsFitPool keeps the newest keep of an endless series
// of snapshots, overwriting half the volume between snapshots. A deleted
// snapshot below the chain head folds into the next layer at once; with
// keep 0 each snapshot is read back (as a stream would) and deleted while
// it is the head, and folds into the next snapshot's layer. Either way the
// pool holds at most the live map and keep frozen layers, and a pool of
// four times the logical size never runs out.
func TestRollingSnapshotsFitPool(t *testing.T) {
	for keep := 0; keep <= 2; keep++ {
		t.Run(fmt.Sprintf("keep%d", keep), func(t *testing.T) { rollingSnapshots(t, keep) })
	}
}

func rollingSnapshots(t *testing.T, keep int) {
	const exts = 32
	m := testMgr(t, 4*exts)
	eb := 16 * protocol.BlockSize
	v, _ := m.Create("v0", exts*16)
	rng := rand.New(rand.NewSource(3))
	model := make([]byte, exts*eb)
	got := make([]byte, len(model))
	var kept []uint64
	images := map[uint64][]byte{}
	for round := 0; round < 400; round++ {
		for _, e := range rng.Perm(exts)[:exts/2] {
			data := pat(byte(round+e), eb)
			if err := v.WriteAt(data, int64(e*eb)); err != nil {
				t.Fatalf("round %d: write extent %d: %v (allocated %d of %d)",
					round, e, err, m.Pool().Allocated(), m.Pool().Total())
			}
			copy(model[e*eb:], data)
		}
		gen, err := m.Snapshot("v0")
		if err != nil {
			t.Fatal(err)
		}
		if err := v.ReadAtGen(got, 0, gen); err != nil || !bytes.Equal(got, model) {
			t.Fatalf("round %d: snapshot %d does not read its image (err %v)", round, gen, err)
		}
		images[gen] = append([]byte(nil), model...)
		kept = append(kept, gen)
		for len(kept) > keep {
			if _, err := m.Delete("v0", kept[0]); err != nil {
				t.Fatal(err)
			}
			delete(images, kept[0])
			kept = kept[1:]
		}
		if a, max := m.Pool().Allocated(), uint32(keep+1)*exts; a > max {
			t.Fatalf("round %d: %d extents allocated, want at most %d", round, a, max)
		}
	}
	for gen, want := range images {
		if err := v.ReadAtGen(got, 0, gen); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d no longer reads its image", gen)
		}
	}
	if err := v.ReadAt(got, 0); err != nil || !bytes.Equal(got, model) {
		t.Fatalf("live image differs from the model (err %v)", err)
	}
}

// TestDeletedGenerationFails deletes a snapshot between the Diff that
// plans a stream of it and the reads that ship it. Its layer folds into
// the next one, so the reads must fail rather than return the older
// image. A clone's base generation still reads after the source deletes
// that snapshot.
func TestDeletedGenerationFails(t *testing.T) {
	const exts = 8
	m := testMgr(t, 8*exts)
	eb := 16 * protocol.BlockSize
	v, _ := m.Create("v0", exts*16)
	for i := 0; i < 3; i++ {
		if err := v.WriteAt(pat(byte(10*i+1), 4*eb), int64(i*eb)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Snapshot("v0"); err != nil {
			t.Fatal(err)
		}
	}
	gens := v.Snapshots()
	g1, g2, g3 := gens[0], gens[1], gens[2]
	c, err := m.Clone("v0", g2, "c0")
	if err != nil {
		t.Fatal(err)
	}
	img2 := make([]byte, exts*eb)
	if err := v.ReadAtGen(img2, 0, g2); err != nil {
		t.Fatal(err)
	}
	planned, err := v.Diff(g1, g2)
	if err != nil || len(planned) == 0 {
		t.Fatalf("Diff(%d,%d) = %v, %v", g1, g2, planned, err)
	}

	// The clone pins g2's layer, so deleting g2 cannot fold it; g1 is
	// referenced only by g2's layer and folds into it.
	if _, err := m.Delete("v0", g2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete("v0", g1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, eb)
	for _, e := range planned {
		if err := v.ReadAtGen(buf, int64(e)*int64(eb), g2); !errors.Is(err, ErrNotFound) {
			t.Fatalf("ReadAtGen(extent %d, deleted gen %d) = %v, want ErrNotFound", e, g2, err)
		}
	}
	if err := v.ReadAtGen(buf, 0, g1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAtGen(folded gen %d) = %v, want ErrNotFound", g1, err)
	}
	for _, w := range [][2]uint64{{g1, g3}, {g2, g3}, {0, g2}} {
		if _, err := v.Diff(w[0], w[1]); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Diff(%d,%d) over a deleted generation = %v, want ErrNotFound", w[0], w[1], err)
		}
	}
	if _, err := v.Diff(0, g3); err != nil {
		t.Fatalf("Diff(0,%d): %v", g3, err)
	}

	got := make([]byte, exts*eb)
	if err := c.ReadAtGen(got, 0, g2); err != nil || !bytes.Equal(got, img2) {
		t.Fatalf("clone's base generation %d no longer reads its image (err %v)", g2, err)
	}
	if err := c.ReadAtGen(got, 0, g1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("clone read at its source's generation %d = %v, want ErrNotFound", g1, err)
	}
	if _, err := c.Diff(g2, c.Gen()); err != nil {
		t.Fatalf("clone Diff from its base: %v", err)
	}
	// With the source gone the clone holds the base layer's only
	// reference; the clone's next snapshot must not fold it.
	if _, err := m.Delete("v0", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt(pat(99, eb), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot("c0"); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadAtGen(got, 0, g2); err != nil || !bytes.Equal(got, img2) {
		t.Fatalf("clone's base generation %d changed after the clone's snapshot (err %v)", g2, err)
	}
}

// TestDiffRestoreAcrossFoldedLayer deletes the middle of three snapshots,
// which folds it into the newest, and checks that the diff between the
// two survivors is unchanged and still turns the older image into the
// newer one, trims included.
func TestDiffRestoreAcrossFoldedLayer(t *testing.T) {
	const exts = 16
	m := testMgr(t, 8*exts)
	eb := 16 * protocol.BlockSize
	v, _ := m.Create("v0", exts*16)
	write := func(seed byte, extents ...int) {
		for _, e := range extents {
			if err := v.WriteAt(pat(seed+byte(e), eb), int64(e*eb)); err != nil {
				t.Fatal(err)
			}
		}
	}
	image := func(gen uint64) []byte {
		b := make([]byte, exts*eb)
		if err := v.ReadAtGen(b, 0, gen); err != nil {
			t.Fatal(err)
		}
		return b
	}
	write(1, 0, 1, 2, 3, 4, 5)
	g1, _ := m.Snapshot("v0")
	write(2, 2, 3, 4, 9, 10)
	v.Trim(int64(5*eb), int64(eb)) // a hole over a g1 extent
	g2, _ := m.Snapshot("v0")
	write(3, 3, 4, 10, 12)
	g3, _ := m.Snapshot("v0")
	write(4, 0, 13) // live writes after the newest snapshot

	img1, img3 := image(g1), image(g3)
	diff, err := v.Diff(g1, g3)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Pool().Allocated()
	freed, err := m.Delete("v0", g2)
	if err != nil {
		t.Fatal(err)
	}
	// g3 shadows g2's extents 3, 4 and 10.
	if freed != 3 || m.Pool().Allocated() != before-3 {
		t.Fatalf("deleting the folded snapshot freed %d (allocated %d -> %d), want 3",
			freed, before, m.Pool().Allocated())
	}
	after, err := v.Diff(g1, g3)
	if err != nil {
		t.Fatal(err)
	}
	if !equalU32(after, diff) {
		t.Fatalf("Diff(%d,%d) = %v after the fold, %v before", g1, g3, after, diff)
	}
	if !bytes.Equal(image(g1), img1) || !bytes.Equal(image(g3), img3) {
		t.Fatal("a surviving snapshot's image changed across the fold")
	}
	// Restore: apply the diff's extents, read as of g3, to the g1 image.
	restored := append([]byte(nil), img1...)
	for _, e := range after {
		if err := v.ReadAtGen(restored[int(e)*eb:int(e+1)*eb], int64(int(e)*eb), g3); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(restored, img3) {
		t.Fatal("diff restore across the folded layer does not reproduce the newer snapshot")
	}
}

// TestFoldUnderCloneReaders folds a layer that a clone's chain passes
// through while the clone is being read, for the race detector, then
// checks the clone still reads its snapshot's image.
func TestFoldUnderCloneReaders(t *testing.T) {
	m := testMgr(t, 64)
	eb := 16 * protocol.BlockSize
	v, _ := m.Create("v0", 8*16)
	for i := 0; i < 3; i++ {
		if err := v.WriteAt(pat(byte(10*i), 4*eb), int64(i*eb)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Snapshot("v0"); err != nil {
			t.Fatal(err)
		}
	}
	gens := v.Snapshots()
	c, err := m.Clone("v0", gens[2], "c0")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8*eb)
	if err := c.ReadAt(want, 0); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		got := make([]byte, len(want))
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := c.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
				done <- fmt.Errorf("clone read changed during the fold (err %v)", err)
				return
			}
		}
	}()
	if _, err := m.Delete("v0", gens[1]); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTranslate(t *testing.T) {
	m := testMgr(t, 64)
	v, _ := m.Create("v0", 1024)
	eb := int64(16 * 512)
	if _, ok := v.Translate(0, 4096); ok {
		t.Fatal("hole translated")
	}
	if err := v.WriteAt(pat(1, int(eb)), eb); err != nil {
		t.Fatal(err)
	}
	poff, ok := v.Translate(eb+512, 4096)
	if !ok {
		t.Fatal("mapped extent did not translate")
	}
	got := make([]byte, 4096)
	if _, err := m.backend.ReadAt(got, poff); err != nil {
		t.Fatal(err)
	}
	want := pat(1, int(eb))[512 : 512+4096]
	if !bytes.Equal(got, want) {
		t.Fatal("translated offset reads wrong bytes")
	}
	if _, ok := v.Translate(2*eb-512, 1024); ok {
		t.Fatal("extent-straddling range translated")
	}
}

// TestVolumeSteadyStateAllocs is the package-level half of the pcore
// zero-alloc acceptance: once an extent is live-owned, reads and in-place
// overwrites allocate nothing.
func TestVolumeSteadyStateAllocs(t *testing.T) {
	m := testMgr(t, 64)
	v, _ := m.Create("v0", 1024)
	buf := pat(7, 4096)
	if err := v.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		if err := v.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := v.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if _, ok := v.Translate(0, 4096); !ok {
			t.Fatal("translate failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state volume I/O allocates %.1f/op, want 0", allocs)
	}
}

// refVolume is the flat-array model the fuzz test checks against: one
// byte slice per named volume plus per-snapshot frozen copies.
type refVolume struct {
	live  []byte
	snaps map[uint64][]byte
}

// TestVolumePropertyFuzz drives random write/snapshot/clone/trim/delete
// interleavings against the extent-map implementation and a flat
// reference model; every read-back (live and per-snapshot) must match.
// Runs under -race via the normal test binary.
func TestVolumePropertyFuzz(t *testing.T) {
	seeds := []int64{1, 2, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { volumeFuzzRun(t, seed) })
	}
}

func volumeFuzzRun(t *testing.T, seed int64) {
	// The pool is sized so it can never exhaust (≤7 volumes × ≤8 owning
	// maps × 32 extents each): a mid-write ErrNoSpace would leave a
	// partially applied multi-extent write and the flat model can't see
	// how far it got.
	const (
		volBlocks = 512 // 256 KiB logical per volume
		poolExts  = 2048
		steps     = 2000
	)
	rng := rand.New(rand.NewSource(seed))
	m := testMgr(t, poolExts)
	refs := make(map[string]*refVolume)
	names := []string{}
	logical := volBlocks * protocol.BlockSize

	create := func(name string) {
		if _, err := m.Create(name, volBlocks); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		refs[name] = &refVolume{live: make([]byte, logical), snaps: map[uint64][]byte{}}
		names = append(names, name)
	}
	create("v0")

	for step := 0; step < steps; step++ {
		name := names[rng.Intn(len(names))]
		ref := refs[name]
		vol, ok := m.Get(name)
		if !ok {
			t.Fatalf("step %d: %s vanished", step, name)
		}
		switch op := rng.Intn(100); {
		case op < 55: // write
			off := rng.Intn(logical)
			n := 1 + rng.Intn(12000)
			if off+n > logical {
				n = logical - off
			}
			data := make([]byte, n)
			rng.Read(data)
			if err := vol.WriteAt(data, int64(off)); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			copy(ref.live[off:], data)
		case op < 65: // read-back a random span (checked below anyway)
			off := rng.Intn(logical)
			n := 1 + rng.Intn(16000)
			if off+n > logical {
				n = logical - off
			}
			got := make([]byte, n)
			if err := vol.ReadAt(got, int64(off)); err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			if !bytes.Equal(got, ref.live[off:off+n]) {
				t.Fatalf("step %d: read mismatch at %d+%d on %s", step, off, n, name)
			}
		case op < 75: // snapshot
			if len(ref.snaps) > 6 {
				continue
			}
			gen, err := m.Snapshot(name)
			if err != nil {
				t.Fatalf("step %d snapshot: %v", step, err)
			}
			ref.snaps[gen] = append([]byte(nil), ref.live...)
		case op < 85: // trim
			off := rng.Intn(logical)
			n := 1 + rng.Intn(64000)
			if off+n > logical {
				n = logical - off
			}
			vol.Trim(int64(off), int64(n))
			// Model: only fully covered extents are discarded.
			eb := int(vol.ExtentBlocks()) * protocol.BlockSize
			first := (off + eb - 1) / eb
			last := (off + n) / eb
			for e := first; e < last; e++ {
				for i := e * eb; i < (e+1)*eb; i++ {
					ref.live[i] = 0
				}
			}
		case op < 92: // clone from a random snapshot
			if len(ref.snaps) == 0 || len(names) > 6 {
				continue
			}
			gens := []uint64{}
			for g := range ref.snaps {
				gens = append(gens, g)
			}
			gen := gens[rng.Intn(len(gens))]
			cname := fmt.Sprintf("c%d", step)
			if _, err := m.Clone(name, gen, cname); err != nil {
				t.Fatalf("step %d clone: %v", step, err)
			}
			refs[cname] = &refVolume{
				live:  append([]byte(nil), ref.snaps[gen]...),
				snaps: map[uint64][]byte{},
			}
			names = append(names, cname)
		default: // delete a snapshot or a whole volume
			if len(ref.snaps) > 0 && rng.Intn(2) == 0 {
				for g := range ref.snaps {
					if _, err := m.Delete(name, g); err != nil {
						t.Fatalf("step %d snap delete: %v", step, err)
					}
					delete(ref.snaps, g)
					break
				}
			} else if len(names) > 1 {
				if _, err := m.Delete(name, 0); err != nil {
					t.Fatalf("step %d delete: %v", step, err)
				}
				delete(refs, name)
				for i, n2 := range names {
					if n2 == name {
						names = append(names[:i], names[i+1:]...)
						break
					}
				}
			}
		}
	}

	// Final sweep: every surviving volume's live image and every
	// registered snapshot must match the model byte-for-byte.
	for _, name := range names {
		ref := refs[name]
		vol, _ := m.Get(name)
		got := make([]byte, logical)
		if err := vol.ReadAt(got, 0); err != nil {
			t.Fatalf("final read %s: %v", name, err)
		}
		if !bytes.Equal(got, ref.live) {
			t.Fatalf("final live mismatch on %s", name)
		}
		for gen, want := range ref.snaps {
			if err := vol.ReadAtGen(got, 0, gen); err != nil {
				t.Fatalf("final snap read %s@%d: %v", name, gen, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("final snapshot mismatch on %s@%d", name, gen)
			}
		}
	}
	// Extent accounting: deleting everything returns the pool to empty.
	for _, name := range append([]string(nil), names...) {
		if _, err := m.Delete(name, 0); err != nil {
			t.Fatalf("final delete %s: %v", name, err)
		}
	}
	if a := m.Pool().Allocated(); a != 0 {
		t.Fatalf("%d extents leaked after deleting all volumes", a)
	}
}

// TestVolumeConcurrentReadWrite exercises the shared-lock fast path under
// -race: concurrent readers, in-place writers and a snapshotter.
func TestVolumeConcurrentReadWrite(t *testing.T) {
	m := testMgr(t, 256)
	v, _ := m.Create("v0", 2048)
	if err := v.WriteAt(make([]byte, 2048*protocol.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := pat(byte(w), 4096)
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := int64(rng.Intn(250)) * 4096
				if err := v.WriteAt(buf, off); err != nil && err != ErrNoSpace {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got := make([]byte, 4096)
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := v.ReadAt(got, int64(rng.Intn(250))*4096); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Snapshot("v0"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
