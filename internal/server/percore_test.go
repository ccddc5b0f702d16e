package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/client"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/ctrl"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

// TestHandleWrapProbesPastCollision is the handle-wrap starvation
// regression: after the allocation cursor wraps the uint16 space, a
// collision with a long-lived tenant used to return StatusNoCapacity even
// though almost every handle was free. Registration must probe past live
// handles (and skip the reserved handle 0) and only report exhaustion
// when the table is truly full.
func TestHandleWrapProbesPastCollision(t *testing.T) {
	srv, _ := startServer(t, nil)

	// Park a long-lived tenant at the very top of the handle space.
	srv.tenants.next.Store(65534) // next claim: 65534+1 = 65535
	hTop, st := srv.registerTenant(beWritable(), -1)
	if st != protocol.StatusOK || hTop != 65535 {
		t.Fatalf("top registration: handle %d status %v, want 65535 OK", hTop, st)
	}

	// Rewind the cursor so the next claim collides with the live tenant,
	// then wraps through 0. The fixed allocator must deliver handle 1.
	srv.tenants.next.Store(65534)
	h, st := srv.registerTenant(beWritable(), -1)
	if st != protocol.StatusOK {
		t.Fatalf("registration across the wrap: %v, want OK (old allocator starved here)", st)
	}
	if h != 1 {
		t.Fatalf("wrapped registration handle = %d, want 1 (probe past 65535, skip 0)", h)
	}

	// Churn across the wrap: register/unregister repeatedly with the
	// cursor pinned near the top so every iteration wraps and collides.
	for i := 0; i < 64; i++ {
		srv.tenants.next.Store(65534)
		hi, st := srv.registerTenant(beWritable(), -1)
		if st != protocol.StatusOK {
			t.Fatalf("churn iteration %d: %v, want OK", i, st)
		}
		if st := srv.unregisterTenant(hi); st != protocol.StatusOK {
			t.Fatalf("churn unregister %d: %v", i, st)
		}
	}

	// The long-lived tenant was never disturbed.
	if _, ok := srv.lookup(hTop); !ok {
		t.Fatal("long-lived tenant lost during wrap churn")
	}
}

// TestTenantTableExhaustion verifies the allocator's only refusal is true
// exhaustion: with every one of the 65535 usable handles claimed, claim
// fails; freeing a single slot makes it succeed again.
func TestTenantTableExhaustion(t *testing.T) {
	tt := &tenantTable{}
	for i := 0; i < handleSpace-1; i++ {
		if _, ok := tt.claim(); !ok {
			t.Fatalf("claim %d failed with free slots remaining", i)
		}
	}
	if h, ok := tt.claim(); ok {
		t.Fatalf("claim succeeded (%d) on a full table", h)
	}
	tt.unclaim(12345)
	h, ok := tt.claim()
	if !ok || h != 12345 {
		t.Fatalf("claim after freeing 12345: handle %d ok=%v, want 12345 true", h, ok)
	}
}

// recordResponder captures responses for drop-path assertions.
type recordResponder struct {
	mu   sync.Mutex
	hdrs []protocol.Header
}

func (r *recordResponder) send(hdr *protocol.Header, payload []byte, lease *bufpool.Buf) {
	r.mu.Lock()
	r.hdrs = append(r.hdrs, *hdr)
	r.mu.Unlock()
	bufpool.ReleaseIf(lease)
}

// TestShutdownDropFailsRequest is the shutdown lease-leak regression: a
// request dropped because server shutdown raced its enqueue used to
// vanish silently — payload lease held forever, tenant in-flight count
// never retired, no response. The drop path must release the lease
// (verified through recycle-time poisoning), answer the client with a
// typed error, and retire the tenant's in-flight count.
func TestShutdownDropFailsRequest(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)

	cfg := Config{
		Addr:      "127.0.0.1:0",
		Cores:     1,
		RingSize:  1,
		Model:     modelA(),
		TokenRate: 1_000_000 * core.TokenUnit,
	}
	srv, err := New(cfg, storage.NewMem(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	h, st := srv.registerTenant(beWritable(), -1)
	if st != protocol.StatusOK {
		t.Fatalf("register: %v", st)
	}
	ten, ok := srv.lookup(h)
	if !ok {
		t.Fatal("tenant missing")
	}
	srv.Close() // core loop gone; s.done closed

	rr := &recordResponder{}
	mkReq := func() enqueued {
		lease := bufpool.Get(512)
		payload := lease.Bytes()
		for i := range payload {
			payload[i] = 0x5A
		}
		ctx := &reqCtx{
			conn:    rr,
			ten:     ten,
			hdr:     protocol.Header{Opcode: protocol.OpWrite, Handle: h, Count: 512, Len: 512},
			payload: payload,
			lease:   lease,
		}
		return enqueued{ten: ten, req: &core.Request{Op: core.OpWrite, Size: 512, Context: ctx}}
	}

	// Occupy the single ring slot so enqueue cannot take the ring branch
	// and must hit the shutdown drop path deterministically.
	blocker := mkReq()
	srv.cores[0].ring <- blocker

	e := mkReq()
	ctx := e.req.Context.(*reqCtx)
	leased := ctx.payload // window into the pooled backing array
	if !ten.submitIO(srv, e) {
		t.Fatal("submitIO refused a live tenant")
	}

	// The lease was released: the context pointer is cleared and the
	// backing bytes were poisoned on recycle.
	if ctx.lease != nil {
		t.Fatal("dropped request still holds its payload lease")
	}
	if leased[0] != bufpool.Poison {
		t.Fatalf("payload byte %#x after drop, want poison %#x (lease never recycled)",
			leased[0], bufpool.Poison)
	}
	// The client got a typed failure, not silence.
	rr.mu.Lock()
	got := len(rr.hdrs)
	var status protocol.Status
	if got > 0 {
		status = rr.hdrs[0].Status
	}
	rr.mu.Unlock()
	if got != 1 || status != protocol.StatusOverloaded {
		t.Fatalf("drop response: %d msgs, status %v; want 1 StatusOverloaded", got, status)
	}
	// The in-flight count was retired (submitIO charged 1, ioDone repaid
	// it), so barrier waiters cannot hang on the dropped request.
	ten.mu.Lock()
	outstanding := ten.outstanding
	ten.mu.Unlock()
	if outstanding != 0 {
		t.Fatalf("outstanding = %d after drop, want 0", outstanding)
	}

	// Clean up the blocker's lease (it never reached a scheduler).
	bctx := blocker.req.Context.(*reqCtx)
	bctx.releaseLease()
}

// TestShutdownUnderLoadPoisoned closes a multi-core server while clients
// hammer the write path with pooled payload leases in flight and recycle
// poisoning armed: any request abandoned with its lease still referenced,
// double-released, or flushed after recycling trips the poison/refcount
// checks (panic) or the race detector.
func TestShutdownUnderLoadPoisoned(t *testing.T) {
	bufpool.SetPoison(true)
	defer bufpool.SetPoison(false)

	cfg := Config{
		Addr:      "127.0.0.1:0",
		Cores:     2,
		RingSize:  64, // small ring: shutdown races enqueue backpressure
		Model:     modelA(),
		TokenRate: 1_000_000 * core.TokenUnit,
	}
	srv, err := New(cfg, storage.NewMem(16<<20))
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr())
			if err != nil {
				return // accept may already be racing Close
			}
			defer cl.Close()
			h, err := cl.Register(beWritable())
			if err != nil {
				return
			}
			data := bytes.Repeat([]byte{byte(w + 1)}, 4096)
			for i := 0; ; i++ {
				// Errors are expected once Close lands; the test's
				// assertion is the absence of poison/refcount panics.
				if _, err := cl.GoWrite(h, uint32((i%64)*8), data); err != nil {
					return
				}
				if i%32 == 0 {
					if _, err := cl.Read(h, 0, 4096); err != nil {
						return
					}
				}
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond) // let the load reach steady state
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestShedQueueHighDerivesFromRingSize is the shed-threshold regression:
// the default queue high watermark must track the configured per-core
// ring capacity (3/4 of it) instead of a fixed constant, so resizing the
// ring moves the backpressure-to-refusal crossover with it.
func TestShedQueueHighDerivesFromRingSize(t *testing.T) {
	for _, tc := range []struct {
		ring     int
		wantHigh int
	}{
		{0, 3 * DefaultRingSize / 4}, // default ring -> default watermark
		{100, 75},
		{8192, 6144},
	} {
		cfg := Config{RingSize: tc.ring}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		if cfg.Shed.QueueHigh != tc.wantHigh {
			t.Errorf("RingSize %d: QueueHigh = %d, want %d", tc.ring, cfg.Shed.QueueHigh, tc.wantHigh)
		}
	}
	// An explicit watermark is never overridden.
	cfg := Config{RingSize: 100, Shed: ctrl.ShedConfig{QueueHigh: 9}}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.Shed.QueueHigh != 9 {
		t.Errorf("explicit QueueHigh overridden: got %d, want 9", cfg.Shed.QueueHigh)
	}
}

// TestCorePinnedChurn exercises the shared-nothing invariants under
// -race: a multi-core server with connections spread across cores,
// tenants pinned to their connection's core, and concurrent
// register/unregister churn while other connections push ledgered writes.
// The race detector proves no cross-core scheduler access; the final
// read-back proves every acknowledged write landed.
func TestCorePinnedChurn(t *testing.T) {
	srv, _ := startServer(t, func(c *Config) {
		c.Cores = 4
	})
	if srv.Cores() != 4 {
		t.Fatalf("Cores() = %d, want 4", srv.Cores())
	}

	// Pinning rule: every tenant registered over one connection lands on
	// that connection's core.
	cl0, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl0.Close()
	var handles []uint16
	for i := 0; i < 3; i++ {
		h, err := cl0.Register(beWritable())
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	first, _ := srv.lookup(handles[0])
	for _, h := range handles[1:] {
		st, ok := srv.lookup(h)
		if !ok || st.coreID != first.coreID {
			t.Fatalf("tenants on one connection landed on cores %d and %d, want co-located",
				first.coreID, st.coreID)
		}
	}

	const (
		writers = 4
		churns  = 2
		blocks  = 32
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+churns)

	// Ledgered writers: each owns a disjoint LBA range on its own
	// connection (= its own core) and must read back everything it wrote.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			h, err := cl.Register(beWritable())
			if err != nil {
				errCh <- err
				return
			}
			base := uint32(w * blocks * 8) // disjoint 4KiB-block ranges
			for i := 0; i < blocks; i++ {
				data := bytes.Repeat([]byte{byte(w<<4 | i&0xF)}, 4096)
				if err := cl.Write(h, base+uint32(i*8), data); err != nil {
					errCh <- fmt.Errorf("writer %d block %d: %w", w, i, err)
					return
				}
			}
			for i := 0; i < blocks; i++ {
				want := bytes.Repeat([]byte{byte(w<<4 | i&0xF)}, 4096)
				got, err := cl.Read(h, base+uint32(i*8), 4096)
				if err != nil {
					errCh <- fmt.Errorf("writer %d readback %d: %w", w, i, err)
					return
				}
				if !bytes.Equal(got, want) {
					errCh <- fmt.Errorf("writer %d block %d: ledgered write lost", w, i)
					return
				}
			}
		}(w)
	}

	// Churners: register/unregister and small I/O on their own
	// connections, concurrently with the ledgered writers.
	for c := 0; c < churns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 48; i++ {
				h, err := cl.Register(beWritable())
				if err != nil {
					errCh <- fmt.Errorf("churn %d register %d: %w", c, i, err)
					return
				}
				if _, err := cl.Read(h, uint32(1024+c*16), 512); err != nil {
					errCh <- fmt.Errorf("churn %d read %d: %w", c, i, err)
					return
				}
				if err := cl.Unregister(h); err != nil {
					errCh <- fmt.Errorf("churn %d unregister %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
