package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/protocol"
)

// startVolServer is startServer with the volume layer enabled: a 16 MiB
// extent pool at the top of the 64 MiB mem device.
func startVolServer(t *testing.T, mutate func(*Config)) (*Server, *client.Client) {
	t.Helper()
	return startServer(t, func(cfg *Config) {
		cfg.VolumeBytes = 16 << 20
		if mutate != nil {
			mutate(cfg)
		}
	})
}

func TestVolumeLifecycleEndToEnd(t *testing.T) {
	_, cl := startVolServer(t, nil)

	vh, err := cl.VolCreate("tenants/alpha", 4096) // 2 MiB logical
	if err != nil {
		t.Fatal(err)
	}
	if vh == 0 {
		t.Fatal("zero volume handle")
	}
	h, err := cl.OpenVolume(beWritable(), vh)
	if err != nil {
		t.Fatal(err)
	}

	// Thin: unwritten space reads zero.
	z, err := cl.Read(h, 1000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(z, make([]byte, 4096)) {
		t.Fatal("thin volume not zero-filled")
	}

	data := bytes.Repeat([]byte{0x5A}, 8192)
	if err := cl.Write(h, 256, data); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Read(h, 256, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("volume write/read mismatch")
	}

	// Volume ACL: the logical size bounds I/O, not the device size.
	if _, err := cl.Read(h, 4095, 1024); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("read past volume end: %v, want ErrBadRequest", err)
	}

	// Snapshot freezes the image; overwrites CoW away from it.
	gen, err := cl.VolSnapshot("tenants/alpha")
	if err != nil {
		t.Fatal(err)
	}
	over := bytes.Repeat([]byte{0xC3}, 8192)
	if err := cl.Write(h, 256, over); err != nil {
		t.Fatal(err)
	}

	// A clone of the snapshot still reads the pre-overwrite bytes while
	// the live volume serves the new ones.
	ch, err := cl.VolClone("tenants/alpha", gen, "tenants/alpha-restore")
	if err != nil {
		t.Fatal(err)
	}
	hc, err := cl.OpenVolume(beWritable(), ch)
	if err != nil {
		t.Fatal(err)
	}
	old, err := cl.Read(hc, 256, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, data) {
		t.Fatal("clone does not serve the snapshot image")
	}
	live, err := cl.Read(h, 256, len(over))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, over) {
		t.Fatal("live volume lost the overwrite")
	}

	// The clone is writable and independent.
	if err := cl.Write(hc, 0, bytes.Repeat([]byte{0x11}, 512)); err != nil {
		t.Fatal(err)
	}
	z, err = cl.Read(h, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(z, make([]byte, 512)) {
		t.Fatal("clone write leaked into the source volume")
	}

	// Diff (0, gen] names the extents of the first write, not the
	// post-snapshot overwrite.
	d, resolved, err := cl.VolDiff("tenants/alpha", 0, gen)
	if err != nil {
		t.Fatal(err)
	}
	if resolved != gen || len(d.Extents) == 0 {
		t.Fatalf("diff (0,%d]: resolved %d, %d extents", gen, resolved, len(d.Extents))
	}

	// Directory lists both volumes with the snapshot.
	infos, err := cl.VolList()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("VolList returned %d volumes, want 2", len(infos))
	}
	byName := map[string]protocol.VolumeInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in, ok := byName["tenants/alpha"]; !ok || len(in.Snaps) != 1 || in.Snaps[0] != gen {
		t.Fatalf("directory entry wrong: %+v", in)
	}

	// Trim frees thin extents on the live volume; the range reads zero.
	ext := int64(byName["tenants/alpha"].ExtentBlocks) * protocol.BlockSize
	freed, err := cl.Trim(h, 256, uint32(2*ext))
	if err != nil {
		t.Fatal(err)
	}
	_ = freed // live extents were CoW'd post-snapshot, so ≥1 is freed
	z, err = cl.Read(h, 256, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(z, make([]byte, 4096)) {
		t.Fatal("trimmed range does not read zero")
	}

	// Cleanup: snapshot first (a snapshot with a clone stays pinned),
	// then volumes.
	if _, err := cl.VolDelete("tenants/alpha-restore", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.VolDelete("tenants/alpha", gen); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.VolDelete("tenants/alpha", 0); err != nil {
		t.Fatal(err)
	}
	infos, err = cl.VolList()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("%d volumes survive deletion", len(infos))
	}
}

// TestVolumeTrimOnRawTenantAdvisory: OpTrim on a raw-device tenant is an
// advisory no-op OK, so clients can trim unconditionally.
func TestVolumeTrimOnRawTenantAdvisory(t *testing.T) {
	_, cl := startVolServer(t, nil)
	h, err := cl.Register(beWritable())
	if err != nil {
		t.Fatal(err)
	}
	freed, err := cl.Trim(h, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if freed != 0 {
		t.Fatalf("raw trim freed %d extents, want 0", freed)
	}
	// Read-only tenants may not trim (it mutates the extent map).
	ro, err := cl.Register(protocol.Registration{BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Trim(ro, 0, 512); !errors.Is(err, client.ErrDenied) {
		t.Fatalf("read-only trim: %v, want ErrDenied", err)
	}
}

// TestVolumeCacheCoherentAcrossCoW is the stale-bytes regression test:
// with the DRAM read cache on, a cached pre-snapshot read must not be
// served for a post-snapshot overwrite (the CoW remap changes the
// physical cache key) and vice versa.
func TestVolumeCacheCoherentAcrossCoW(t *testing.T) {
	_, cl := startVolServer(t, func(cfg *Config) {
		cfg.CacheBytes = 8 << 20
		cfg.CacheAdmit = "always"
	})
	vh, err := cl.VolCreate("cached", 2048)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.OpenVolume(beWritable(), vh)
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{0xAA}, 4096)
	if err := cl.Write(h, 0, a); err != nil {
		t.Fatal(err)
	}
	// Read twice: miss-then-fill, then a cache hit.
	for i := 0; i < 2; i++ {
		got, err := cl.Read(h, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, a) {
			t.Fatalf("pre-snapshot read %d mismatch", i)
		}
	}
	if _, err := cl.VolSnapshot("cached"); err != nil {
		t.Fatal(err)
	}
	b := bytes.Repeat([]byte{0xBB}, 4096)
	if err := cl.Write(h, 0, b); err != nil {
		t.Fatal(err)
	}
	// The overwrite CoW'd to a new extent: the cached pre-snapshot block
	// lives under the old physical key and must not be served.
	for i := 0; i < 2; i++ {
		got, err := cl.Read(h, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("post-CoW read %d served stale bytes", i)
		}
	}
}

// TestVolRestoreStream: the OpVolStream diff stream reconstructs the
// snapshot image chunk by chunk on a dedicated connection.
func TestVolRestoreStream(t *testing.T) {
	srv, cl := startVolServer(t, nil)
	vh, err := cl.VolCreate("src", 4096)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.OpenVolume(beWritable(), vh)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 128<<10)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	if err := cl.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	gen, err := cl.VolSnapshot("src")
	if err != nil {
		t.Fatal(err)
	}
	// Post-snapshot noise the (0, gen] stream must not ship.
	if err := cl.Write(h, 0, bytes.Repeat([]byte{0xEE}, 4096)); err != nil {
		t.Fatal(err)
	}

	image := make([]byte, 4096*protocol.BlockSize)
	var streamed int
	got, err := client.VolRestore(srv.Addr(), "src", 0, gen, func(off int64, p []byte) error {
		streamed += len(p)
		copy(image[off:], p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != gen {
		t.Fatalf("stream resolved gen %d, want %d", got, gen)
	}
	if streamed == 0 {
		t.Fatal("stream shipped nothing")
	}
	if !bytes.Equal(image[:len(data)], data) {
		t.Fatal("restored image does not match the snapshot")
	}
	for _, b := range image[len(data):] {
		if b != 0 {
			t.Fatal("restored image has non-zero bytes outside the written range")
		}
	}
}

// TestVolRestoreAbortsOnDeletedSnapshot deletes the snapshot being
// streamed after its first chunk. The snapshot sits below the chain head,
// so its layer folds into the next one; the stream must abort rather than
// finish with the rest of the image read from the folded chain.
func TestVolRestoreAbortsOnDeletedSnapshot(t *testing.T) {
	srv, cl := startVolServer(t, nil)
	vh, err := cl.VolCreate("src", 4096)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.OpenVolume(beWritable(), vh)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<20) // several stream chunks
	for i := range data {
		data[i] = byte(i*5 + 1)
	}
	if err := cl.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	gen, err := cl.VolSnapshot("src")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.VolSnapshot("src"); err != nil {
		t.Fatal(err)
	}
	chunks := 0
	_, err = client.VolRestore(srv.Addr(), "src", 0, gen, func(off int64, p []byte) error {
		if chunks++; chunks == 1 {
			if _, err := cl.VolDelete("src", gen); err != nil {
				return err
			}
		}
		if !bytes.Equal(p, data[off:off+int64(len(p))]) {
			return fmt.Errorf("chunk at %d does not match snapshot %d", off, gen)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "aborted by source") {
		t.Fatalf("restore of a snapshot deleted mid-stream = %v after %d chunks, want a source abort", err, chunks)
	}
}

// TestVolRestoreUnalignedVolume: a volume whose size is not an extent
// multiple streams its tail extent clamped to the logical size instead of
// aborting mid-stream (the stream would otherwise read past LogicalBytes
// and die without an end marker, hanging the receiver).
func TestVolRestoreUnalignedVolume(t *testing.T) {
	srv, cl := startVolServer(t, nil)
	const blocks = 3*128 + 37 // deliberately not a multiple of the 128-block extent
	vh, err := cl.VolCreate("odd", blocks)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cl.OpenVolume(beWritable(), vh)
	if err != nil {
		t.Fatal(err)
	}
	// Data in the tail extent, reaching the very last logical block.
	tail := make([]byte, 8*protocol.BlockSize)
	for i := range tail {
		tail[i] = byte(i*13 + 1)
	}
	if err := cl.Write(h, blocks-8, tail); err != nil {
		t.Fatal(err)
	}
	head := bytes.Repeat([]byte{0xAB}, 4096)
	if err := cl.Write(h, 0, head); err != nil {
		t.Fatal(err)
	}
	gen, err := cl.VolSnapshot("odd")
	if err != nil {
		t.Fatal(err)
	}

	logical := int64(blocks) * protocol.BlockSize
	image := make([]byte, logical)
	got, err := client.VolRestore(srv.Addr(), "odd", 0, gen, func(off int64, p []byte) error {
		if off+int64(len(p)) > logical {
			return fmt.Errorf("chunk [%d, %d) past logical size %d", off, off+int64(len(p)), logical)
		}
		copy(image[off:], p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != gen {
		t.Fatalf("stream resolved gen %d, want %d", got, gen)
	}
	if !bytes.Equal(image[:len(head)], head) {
		t.Fatal("restored head extent mismatch")
	}
	if !bytes.Equal(image[logical-int64(len(tail)):], tail) {
		t.Fatal("restored tail extent mismatch")
	}
}

// record stamps a 4KB write payload so the soak's verifier can identify
// which acked write a block holds: slot and sequence number repeated
// through the block.
func record(slot, seq uint32) []byte {
	p := make([]byte, 4096)
	for i := 0; i < len(p); i += 8 {
		binary.BigEndian.PutUint32(p[i:], slot)
		binary.BigEndian.PutUint32(p[i+4:], seq)
	}
	return p
}

// decodeRecord returns (slot, seq, ok); ok is false for a torn or
// zero block.
func decodeRecord(p []byte) (uint32, uint32, bool) {
	slot := binary.BigEndian.Uint32(p)
	seq := binary.BigEndian.Uint32(p[4:])
	for i := 0; i < len(p); i += 8 {
		if binary.BigEndian.Uint32(p[i:]) != slot || binary.BigEndian.Uint32(p[i+4:]) != seq {
			return slot, seq, false
		}
	}
	return slot, seq, true
}

// TestVolumeSnapshotSoak is the CI volume-soak job: ledgered writers
// hammer a live volume while a latency-critical reader runs unsheddable
// probes; mid-run the volume is snapshotted, cloned, and diff-restored
// over a dedicated stream. Acceptance: (1) the restored image is
// crash-consistent — every slot holds a whole record whose sequence
// number is between the writer's acked floor at the snapshot and its
// in-flight ceiling; (2) after the writers stop, the live volume holds
// exactly the last acked record per slot (zero lost acked writes);
// (3) the LC probe is never shed and never errors.
func TestVolumeSnapshotSoak(t *testing.T) {
	srv, cl := startVolServer(t, func(cfg *Config) {
		cfg.CacheBytes = 4 << 20
	})

	const (
		writers      = 4
		slotsPer     = 8
		slotBlocks   = 8 // one 4KB record per slot
		totalSlots   = writers * slotsPer
		soakDuration = 1500 * time.Millisecond
		snapAfter    = 400 * time.Millisecond
	)
	volBlocks := uint64(totalSlots*slotBlocks + 64)
	vh, err := cl.VolCreate("soak", volBlocks)
	if err != nil {
		t.Fatal(err)
	}

	// Ledger: per slot, the highest acked seq (atomics; verifier reads
	// them at well-defined points).
	var acked [totalSlots]atomic.Uint32

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, writers+1)

	for w := 0; w < writers; w++ {
		h, err := cl.OpenVolume(beWritable(), vh)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, h uint16) {
			defer wg.Done()
			seq := uint32(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq++
				slot := w*slotsPer + int(seq)%slotsPer
				if err := cl.Write(h, uint32(slot*slotBlocks), record(uint32(slot), seq)); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				acked[slot].Store(seq)
			}
		}(w, h)
	}

	// LC probe: an unsheddable latency-critical reader on the same
	// volume. Any shed (ErrOverloaded) or error fails the soak.
	lcH, err := cl.OpenVolume(protocol.Registration{
		ReadPercent: 100,
		IOPS:        1000,
		LatencyP95:  uint64(2 * time.Millisecond),
		Volume:      0, // set by OpenVolume
	}, vh)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if _, err := cl.Read(lcH, 0, 4096); err != nil {
				errCh <- fmt.Errorf("LC probe: %w", err)
				return
			}
		}
	}()

	// Mid-run: snapshot, clone, and diff-restore while the writers keep
	// going. floor/ceil bracket the acked sequence numbers around the
	// snapshot instant.
	time.Sleep(snapAfter)
	var floor, ceil [totalSlots]uint32
	for i := range floor {
		floor[i] = acked[i].Load()
	}
	gen, err := cl.VolSnapshot("soak")
	if err != nil {
		t.Fatal(err)
	}
	for i := range ceil {
		// A slot's next write steps its seq by slotsPer, and each writer
		// has at most one write in flight across the snapshot instant.
		ceil[i] = acked[i].Load() + slotsPer
	}

	if _, err := cl.VolClone("soak", gen, "soak-clone"); err != nil {
		t.Fatal(err)
	}
	image := make([]byte, volBlocks*protocol.BlockSize)
	if _, err := client.VolRestore(srv.Addr(), "soak", 0, gen, func(off int64, p []byte) error {
		copy(image[off:], p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Let the soak run on, then stop everything.
	time.Sleep(soakDuration - snapAfter)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// (1) Crash consistency of the snapshot image, via BOTH restore
	// paths: the diff-streamed image and the server-side clone must hold,
	// per slot, a whole record bracketed by [floor, ceil].
	hc, err := cl.OpenVolume(beWritable(), mustVolHandle(t, cl, "soak-clone"))
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < totalSlots; slot++ {
		off := slot * slotBlocks * protocol.BlockSize
		fromStream := image[off : off+4096]
		fromClone, err := cl.Read(hc, uint32(slot*slotBlocks), 4096)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromStream, fromClone) {
			t.Fatalf("slot %d: diff-restored image differs from the clone", slot)
		}
		if bytes.Equal(fromStream, make([]byte, 4096)) {
			if floor[slot] != 0 {
				t.Fatalf("slot %d: snapshot lost acked write (floor %d, got zeros)", slot, floor[slot])
			}
			continue
		}
		gotSlot, seq, whole := decodeRecord(fromStream)
		if !whole {
			t.Fatalf("slot %d: torn record in snapshot", slot)
		}
		if gotSlot != uint32(slot) || seq < floor[slot] || seq > ceil[slot] {
			t.Fatalf("slot %d: snapshot record slot=%d seq=%d outside [%d,%d]",
				slot, gotSlot, seq, floor[slot], ceil[slot])
		}
	}

	// (2) Zero lost acked writes on the live volume.
	liveH, err := cl.OpenVolume(beWritable(), vh)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < totalSlots; slot++ {
		want := acked[slot].Load()
		if want == 0 {
			continue
		}
		got, err := cl.Read(liveH, uint32(slot*slotBlocks), 4096)
		if err != nil {
			t.Fatal(err)
		}
		gotSlot, seq, whole := decodeRecord(got)
		if !whole || gotSlot != uint32(slot) {
			t.Fatalf("slot %d: torn/foreign record after soak", slot)
		}
		// Writers ack-then-ledger and were joined, so the read-back must
		// be exact.
		if seq != want {
			t.Fatalf("slot %d: live volume holds seq %d, last acked %d (lost acked write)",
				slot, seq, want)
		}
	}
}

// mustVolHandle resolves a volume name to its wire handle via VolList.
func mustVolHandle(t *testing.T, cl *client.Client, name string) uint16 {
	t.Helper()
	infos, err := cl.VolList()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range infos {
		if in.Name == name {
			return in.Handle
		}
	}
	t.Fatalf("volume %q not in directory", name)
	return 0
}
