package client

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/protocol"
)

// Client-side cluster robustness (DESIGN.md §11): epoch-fenced failover
// across a replica set and hedged reads against the backup.
//
// Failover reuses PR 2's reconnect machinery wholesale — the dial target
// is client state (not a captured closure), so swapping it redirects the
// existing backoff/re-register/replay pipeline at the next replica. What
// cluster mode adds on top:
//
//   - a handshake on every fresh transport (OpPing; promote a backup or
//     fenced replica at a higher epoch before any traffic; refuse a
//     replica whose epoch is behind ours — it has stale data);
//   - forced failover triggers that a half-open or degraded replica never
//     raises as transport errors: a run of request timeouts, a run of
//     device errors, or a StatusStaleEpoch refusal;
//   - best-effort fencing of the deposed primary after a promotion, so a
//     merely-slow (not dead) old primary cannot accept stale writes.

// Failover tuning knobs.
const (
	// timeoutFailoverRuns is how many consecutive ErrTimeout resolutions
	// force a failover (a blackholed replica only ever times out).
	timeoutFailoverRuns = 2
	// deviceFailoverRuns is how many consecutive ErrDevice resolutions
	// force a failover (a dying device error-storms).
	deviceFailoverRuns = 3
	// hedgeEvalEvery rate-limits re-evaluating the adaptive hedge delay
	// from the windowed p95.
	hedgeEvalEvery = 100 * time.Millisecond
)

// DialCluster connects to a replicated server pair (or any replica set):
// addrs lists every replica, first entry tried first. Options.Reconnect
// is implied. The client probes the target's epoch and role on every
// (re)connection, fails over between replicas on timeouts, resets, device
// errors and stale-epoch refusals, and — with Options.HedgeReads — hedges
// slow reads to a backup replica.
func DialCluster(addrs []string, o Options) (*Client, error) {
	if len(addrs) == 0 {
		return nil, ErrNoReplicas
	}
	o.Reconnect = true
	o.fill()
	cl := newClient(nil, o, append([]string(nil), addrs...))
	cl.cluster = true
	cl.dial = cl.dialCurrent

	// Initial connection: sweep the replica list once, handshaking each
	// candidate, before giving up with the typed no-replicas error.
	var t transport
	var lastErr error
	for i := 0; i < len(cl.targets); i++ {
		nt, err := cl.dialCurrent()
		if err != nil {
			lastErr = err
			cl.rotateTarget()
			continue
		}
		if !cl.clusterHandshake(nt) {
			nt.close()
			lastErr = ErrStaleEpoch
			cl.rotateTarget()
			continue
		}
		t = nt
		break
	}
	if t == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoReplicas, lastErr)
	}
	cl.t = t
	if o.HedgeReads && len(cl.targets) > 1 {
		cl.hedge = newHedger(cl)
	}
	go cl.readLoop()
	return cl, nil
}

// Epoch returns the cluster epoch the client currently stamps on
// requests (0 on non-cluster clients).
func (cl *Client) Epoch() uint16 { return uint16(cl.epochA.Load()) }

// Failovers returns how many times the client promoted a new primary.
func (cl *Client) Failovers() uint64 { return cl.failovers.Load() }

// HedgesWon returns how many hedged reads were answered first by the
// backup (0 when hedging is disabled).
func (cl *Client) HedgesWon() uint64 {
	if cl.hedge == nil {
		return 0
	}
	return cl.hedge.won.Load()
}

// HedgesIssued returns how many duplicate reads the hedger sent.
func (cl *Client) HedgesIssued() uint64 {
	if cl.hedge == nil {
		return 0
	}
	return cl.hedge.issued.Load()
}

// setEpoch raises the client's epoch (never lowers it).
func (cl *Client) setEpoch(e uint16) {
	for {
		cur := cl.epochA.Load()
		if uint32(e) <= cur || cl.epochA.CompareAndSwap(cur, uint32(e)) {
			return
		}
	}
}

// forceFailover rotates to the next replica and kills the transport; the
// read loop's reconnect then runs the normal failover pipeline (backoff,
// handshake/promote, re-register, replay).
func (cl *Client) forceFailover() {
	if !cl.cluster {
		return
	}
	cl.rotateTarget()
	cl.mu.Lock()
	t := cl.t
	cl.mu.Unlock()
	if t != nil {
		t.close()
	}
}

// clusterHandshake probes a fresh transport (which the caller owns
// exclusively) and makes it safe to use: adopt a healthy primary's epoch,
// promote a backup/fenced replica at a higher epoch, refuse a replica
// whose epoch is behind what this client has already seen (its data may
// be stale). Returns false to make resume try the next replica.
func (cl *Client) clusterHandshake(nt transport) bool {
	ping := protocol.Header{Opcode: protocol.OpPing, Cookie: cl.cookie.Add(1), Epoch: cl.Epoch()}
	if err := nt.writeMessage(&ping, nil); err != nil {
		return false
	}
	m, err := nt.readMessage()
	if err != nil || m.Header.Opcode != protocol.OpPing {
		return false
	}
	srvEpoch, role := m.Header.Epoch, m.Header.Count
	if srvEpoch < cl.Epoch() {
		return false // behind the cluster: stale data, never promote it
	}
	if role&(protocol.RoleBackupBit|protocol.RoleFencedBit) == 0 {
		cl.setEpoch(srvEpoch)
		return true
	}
	// Backup or deposed replica: promote it at a strictly higher epoch.
	promote := protocol.Header{
		Opcode: protocol.OpPromote,
		Cookie: cl.cookie.Add(1),
		Epoch:  srvEpoch + 1,
	}
	if err := nt.writeMessage(&promote, nil); err != nil {
		return false
	}
	m, err = nt.readMessage()
	if err != nil || m.Header.Opcode != protocol.OpPromote ||
		m.Header.Status != protocol.StatusOK {
		return false // lost a promote race or refused: try the next replica
	}
	cl.setEpoch(m.Header.Epoch)
	cl.failovers.Add(1)
	// Split-brain defense in depth: tell the other replicas (in
	// particular a slow-but-alive old primary) that a higher epoch
	// exists. Best-effort and asynchronous — the epoch stamp on every
	// write is the actual correctness fence.
	go cl.fenceOthers(cl.target(), m.Header.Epoch)
	if h := cl.hedge; h != nil {
		h.invalidate()
	}
	return true
}

// fenceOthers sends a best-effort OpFence at epoch e to every replica
// except keep (the just-promoted primary).
func (cl *Client) fenceOthers(keep string, e uint16) {
	for _, addr := range cl.targets {
		if addr == keep {
			continue
		}
		t, err := cl.dialTCP(addr)
		if err != nil {
			continue
		}
		hdr := protocol.Header{Opcode: protocol.OpFence, Cookie: cl.cookie.Add(1), Epoch: e}
		if t.writeMessage(&hdr, nil) == nil {
			// Read the ack so the fence is actually processed before the
			// connection drops; ignore its contents.
			if tt, ok := t.(*tcpTransport); ok {
				tt.c.SetReadDeadline(time.Now().Add(2 * time.Second))
			}
			t.readMessage()
		}
		t.close()
	}
}

// hedger issues duplicate reads to a backup replica when the primary is
// slow. The hedge delay adapts to the client's own windowed read p95 (the
// same quantile the obs SLO sampler watches), clamped to the configured
// bounds: when the primary serves its p95 well, hedges are rare; during a
// GC pulse the delay is overtaken constantly and the backup carries the
// tail. Hedged reads run on the backup's own mirror tenant registration,
// so the primary-side token bucket is never double-charged.
type hedger struct {
	cl *Client

	// lat is the primary-read latency histogram backing the adaptive
	// delay; p95 computes the windowed quantile over it.
	lat *obs.Histogram
	p95 func() float64

	mu       sync.Mutex
	sub      *Client           // plain client to the backup replica
	subAddr  string            // which replica sub talks to
	handles  map[uint16]uint16 // user handle -> backup mirror handle
	delayNS  int64             // cached adaptive delay
	lastEval time.Time

	issued atomic.Uint64
	won    atomic.Uint64
}

func newHedger(cl *Client) *hedger {
	reg := obs.NewRegistry()
	lat := reg.Histogram("client_read_latency_ns", "primary read latency (hedge delay source)")
	h := &hedger{
		cl:      cl,
		lat:     lat,
		p95:     obs.WindowedHistQuantile(lat, 0.95),
		handles: make(map[uint16]uint16),
		delayNS: int64(2 * time.Millisecond), // until the window warms up
	}
	return h
}

// close tears down the backup sub-client.
func (h *hedger) close() {
	h.mu.Lock()
	sub := h.sub
	h.sub = nil
	h.handles = make(map[uint16]uint16)
	h.mu.Unlock()
	if sub != nil {
		sub.Close()
	}
}

// invalidate drops the sub-client (called after a failover: the replica
// it talks to may now be the primary).
func (h *hedger) invalidate() { h.close() }

// delay returns the adaptive hedge delay: the windowed read p95, clamped,
// re-evaluated at most every hedgeEvalEvery.
func (h *hedger) delay() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	if now.Sub(h.lastEval) >= hedgeEvalEvery {
		h.lastEval = now
		if p := h.p95(); p > 0 {
			d := time.Duration(p)
			if d < h.cl.opts.HedgeMinDelay {
				d = h.cl.opts.HedgeMinDelay
			}
			if d > h.cl.opts.HedgeMaxDelay {
				d = h.cl.opts.HedgeMaxDelay
			}
			h.delayNS = int64(d)
		}
	}
	return time.Duration(h.delayNS)
}

// backup returns (dialing lazily) the sub-client and the mirror handle
// for the user's tenant.
func (h *hedger) backup(user uint16) (*Client, uint16, error) {
	cl := h.cl
	primary := cl.target()

	h.mu.Lock()
	if h.sub != nil && h.subAddr != primary {
		// The failover moved the primary onto our backup; re-pick.
		sub := h.sub
		h.sub = nil
		h.handles = make(map[uint16]uint16)
		h.mu.Unlock()
		sub.Close()
		h.mu.Lock()
	}
	if h.sub == nil {
		var sub *Client
		var err error
		for _, addr := range cl.targets {
			if addr == primary {
				continue
			}
			sub, err = DialOptions(addr, Options{
				Timeout:  cl.opts.Timeout,
				Dialer:   cl.opts.Dialer,
				Checksum: cl.opts.Checksum,
			})
			if err == nil {
				h.sub = sub
				h.subAddr = addr
				break
			}
		}
		if h.sub == nil {
			h.mu.Unlock()
			if err == nil {
				err = ErrNoReplicas
			}
			return nil, 0, err
		}
	}
	sub := h.sub
	bh, ok := h.handles[user]
	h.mu.Unlock()
	if ok {
		return sub, bh, nil
	}

	// Mirror the tenant on the backup: hedged reads are admitted and
	// token-accounted there, not against the primary's bucket.
	cl.mu.Lock()
	reg, ok := cl.regs[user]
	cl.mu.Unlock()
	if !ok {
		return nil, 0, ErrNoTenant
	}
	bh, err := sub.Register(reg)
	if err != nil {
		return nil, 0, err
	}
	h.mu.Lock()
	if h.sub == sub && h.handles != nil {
		h.handles[user] = bh
	}
	h.mu.Unlock()
	return sub, bh, nil
}

// dropSub discards a misbehaving sub-client so the next hedge re-dials.
func (h *hedger) dropSub(sub *Client) {
	h.mu.Lock()
	if h.sub != sub {
		h.mu.Unlock()
		return
	}
	h.sub = nil
	h.handles = make(map[uint16]uint16)
	h.mu.Unlock()
	sub.Close()
}

// await races the primary call against an adaptive-delay hedge to the
// backup and returns the first successful response.
func (h *hedger) await(call *Call, user uint16, lba uint32, n int) ([]byte, error) {
	start := time.Now()
	timer := time.NewTimer(h.delay())
	defer timer.Stop()
	select {
	case <-call.Done:
		h.lat.Record(int64(time.Since(start)))
		if call.Err != nil {
			return nil, call.Err
		}
		return call.Data, nil
	case <-timer.C:
	}

	// The primary is past its p95: hedge to the backup.
	sub, bh, err := h.backup(user)
	if err != nil {
		// No backup available; fall back to waiting out the primary.
		<-call.Done
		h.lat.Record(int64(time.Since(start)))
		if call.Err != nil {
			return nil, call.Err
		}
		return call.Data, nil
	}
	hc, err := sub.GoRead(bh, lba, n)
	if err != nil {
		h.dropSub(sub)
		<-call.Done
		h.lat.Record(int64(time.Since(start)))
		if call.Err != nil {
			return nil, call.Err
		}
		return call.Data, nil
	}
	h.issued.Add(1)

	select {
	case <-call.Done:
		h.lat.Record(int64(time.Since(start)))
		if call.Err == nil {
			return call.Data, nil
		}
		// Primary failed outright; the hedge is now the only hope.
		<-hc.Done
		if hc.Err == nil {
			h.won.Add(1)
			return hc.Data, nil
		}
		return nil, call.Err
	case <-hc.Done:
		if hc.Err == nil {
			h.won.Add(1)
			return hc.Data, nil
		}
		// Hedge failed; wait out the primary after all.
		<-call.Done
		h.lat.Record(int64(time.Since(start)))
		if call.Err != nil {
			return nil, call.Err
		}
		return call.Data, nil
	}
}
