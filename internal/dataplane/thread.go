package dataplane

import (
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/flashsim"
	"github.com/reflex-go/reflex/internal/obs"
	"github.com/reflex-go/reflex/internal/readcache"
	"github.com/reflex-go/reflex/internal/sim"
)

// ioRequest is one in-flight remote I/O inside the server.
type ioRequest struct {
	conn *Conn
	op   core.OpType
	blk  uint64
	size int
	// shed marks a request refused by the graceful-overload signal: it is
	// answered immediately (header only, no payload) without touching the
	// scheduler or the device.
	shed bool
	// hit marks a read found in the DRAM cache at parse time: it is
	// charged the cache-service cost and never touches the device.
	hit bool
	// fill marks an admitted read miss: its completion commits the block
	// into the cache, fenced by fillEpoch against racing writes.
	fill      bool
	fillEpoch uint64
	// span is the request's lifecycle record (embedded by value: stamping
	// stages allocates nothing). It is copied into the server's trace ring
	// when the response is transmitted.
	span obs.Span
}

// thread is one dataplane core with exclusive network and NVMe queues.
type thread struct {
	srv   *Server
	id    int
	core  *sim.Resource
	sched *core.Scheduler

	rxQ []*ioRequest // arrived, not yet processed
	cqQ []*ioRequest // flash-completed, response not yet sent
	// ready holds parsed requests awaiting their turn in the
	// BlockingModel ablation (one outstanding Flash access at a time).
	ready []*ioRequest

	tenants int
	conns   int

	running   bool
	tickArmed bool
	// blocked is set while the thread waits on a Flash access in the
	// monolithic BlockingModel ablation.
	blocked bool

	requests uint64
	batches  uint64
	maxBatch int
	ticks    uint64
	shed     uint64
}

// cpuFactor inflates per-request CPU cost with connection count, modeling
// TCP state falling out of the last-level cache (Fig. 6c).
func (th *thread) cpuFactor() float64 {
	over := th.conns - th.srv.cfg.ConnBase
	if over <= 0 {
		return 1
	}
	return 1 + th.srv.cfg.ConnFactor*float64(over)/1000
}

// arrive enqueues an incoming request and kicks the polling loop.
func (th *thread) arrive(r *ioRequest) {
	r.span.Mark(obs.StageArrival, th.srv.eng.Now())
	th.rxQ = append(th.rxQ, r)
	th.kick()
}

// complete enqueues a flash completion and kicks the polling loop.
func (th *thread) complete(r *ioRequest) {
	r.span.Mark(obs.StageDevDone, th.srv.eng.Now())
	th.blocked = false
	th.cqQ = append(th.cqQ, r)
	th.kick()
}

// kick starts a processing pass unless one is already queued. The thread
// polls its queues; in the simulator an idle thread simply has no pending
// events instead of spinning.
func (th *thread) kick() {
	if th.running {
		return
	}
	th.running = true
	th.srv.eng.After(0, th.pass)
}

// pass is one iteration of the two-step run-to-completion loop (Fig. 2):
// drain a bounded batch of arrivals through parse+schedule+submit, then a
// bounded batch of completions through event+send. Batch sizes adapt to
// whatever accumulated while the core was busy, capped at MaxBatch.
func (th *thread) pass() {
	cfg := &th.srv.cfg
	inflate := th.cpuFactor()
	cost := func(c sim.Time) sim.Time { return sim.Time(float64(c) * inflate) }

	if th.blocked {
		// Monolithic model: nothing happens until the outstanding Flash
		// access completes.
		th.running = false
		return
	}

	// Feed the graceful-overload signal once per pass (hysteresis lives in
	// the shedder, so per-pass sampling cannot flap it).
	if sh := th.srv.shedder; sh != nil {
		sh.Observe(th.sched.Pending()+len(th.rxQ), th.conns, th.sched.Debt())
	}

	// Step 1: network receive -> tenant queues.
	nrx := len(th.rxQ)
	if nrx > cfg.MaxBatch {
		nrx = cfg.MaxBatch
	}
	if cfg.BlockingModel && nrx > 1 {
		nrx = 1
	}
	if nrx > 0 {
		batch := th.rxQ[:nrx:nrx]
		th.rxQ = append([]*ioRequest(nil), th.rxQ[nrx:]...)
		th.batches++
		if nrx > th.maxBatch {
			th.maxBatch = nrx
		}
		for _, r := range batch {
			r := r
			th.core.Schedule(cost(cfg.RxCost), func(sim.Time) {
				th.requests++
				r.span.Mark(obs.StageParse, th.srv.eng.Now())
				if sh := th.srv.shedder; sh != nil && sh.Active() &&
					r.conn.tenant.Class == core.BestEffort {
					// Graceful shed: refuse the best-effort request with an
					// immediate header-only response. LC requests are never
					// shed — admission control reserved their capacity.
					r.shed = true
					th.shed++
					th.core.Schedule(cost(cfg.TxCost), func(sim.Time) {
						r.conn.respond(r)
					})
					return
				}
				if c := th.srv.cache; c != nil {
					switch {
					case r.op == core.OpRead && r.size <= readcache.BlockSize:
						hit, admit, epoch := c.Probe(readcache.Key(0, r.blk), 0, nil)
						if hit {
							r.hit = true
						} else if admit {
							r.fill, r.fillEpoch = true, epoch
						}
					case r.op == core.OpWrite:
						blocks := uint64((r.size + readcache.BlockSize - 1) / readcache.BlockSize)
						c.Invalidate(readcache.Key(0, r.blk), blocks)
					}
				}
				if cfg.DisableQoS {
					if cfg.BlockingModel {
						// Park until the single outstanding Flash slot
						// frees up.
						th.ready = append(th.ready, r)
						th.kick()
						return
					}
					// Figure 5 "I/O sched disabled": straight to the device.
					th.core.Schedule(cost(cfg.SubmitCost), func(sim.Time) {
						th.submit(r)
					})
					return
				}
				req := &core.Request{
					Op:      r.op,
					Block:   r.blk,
					Size:    r.size,
					Arrival: th.srv.eng.Now(),
					Context: r,
				}
				if r.hit {
					// A DRAM hit never reaches the device: charge the
					// cache-service cost, not a device read's tokens.
					req.CostOverride = th.srv.model.CacheServeCost()
				}
				th.sched.Enqueue(r.conn.tenant, req)
			})
		}
	}

	// BlockingModel: submit at most one parsed request, then wait for its
	// completion. The flag flips synchronously here so no concurrent pass
	// can slip another submission in.
	if cfg.BlockingModel && len(th.ready) > 0 {
		r := th.ready[0]
		th.ready = th.ready[1:]
		th.blocked = true
		th.core.Schedule(cost(cfg.SubmitCost), func(sim.Time) {
			th.submit(r)
		})
	}

	// QoS scheduling round: admit whatever tokens allow. Skipped when no
	// request work exists; token accrual catches up on the next round.
	if !cfg.DisableQoS && (nrx > 0 || th.sched.Pending() > 0) {
		roundCost := cfg.SchedFixed + cfg.SchedPerTenant*sim.Time(th.tenants)
		th.core.Schedule(cost(roundCost), func(end sim.Time) {
			th.sched.Schedule(th.srv.eng.Now(), func(cr *core.Request) {
				r := cr.Context.(*ioRequest)
				r.span.Mark(obs.StageAdmit, th.srv.eng.Now())
				th.core.Schedule(cost(cfg.SubmitCost+cfg.SchedPerReq), func(sim.Time) {
					th.submit(r)
				})
			})
		})
	}

	// Step 2: flash completion -> response transmission.
	ncq := len(th.cqQ)
	if ncq > cfg.MaxBatch {
		ncq = cfg.MaxBatch
	}
	if ncq > 0 {
		batch := th.cqQ[:ncq:ncq]
		th.cqQ = append([]*ioRequest(nil), th.cqQ[ncq:]...)
		for _, r := range batch {
			r := r
			th.core.Schedule(cost(cfg.CqeCost+cfg.TxCost), func(sim.Time) {
				r.conn.respond(r)
			})
		}
	}

	// Close the pass: decide whether to run again immediately, wait for a
	// scheduler tick, or go idle.
	th.core.Schedule(0, func(sim.Time) {
		th.running = false
		if len(th.rxQ) > 0 || len(th.cqQ) > 0 || (len(th.ready) > 0 && !th.blocked) {
			th.kick()
			return
		}
		if !cfg.DisableQoS && th.sched.Pending() > 0 {
			th.armTick()
		}
	})
}

// armTick schedules a future scheduling round for requests waiting on
// token accrual.
func (th *thread) armTick() {
	if th.tickArmed {
		return
	}
	th.tickArmed = true
	th.srv.eng.After(th.srv.cfg.SchedTick, func() {
		th.tickArmed = false
		th.ticks++
		th.kick()
	})
}

// submit issues the I/O to the NVMe device, or serves a cache hit from
// DRAM without touching it.
func (th *thread) submit(r *ioRequest) {
	r.span.Mark(obs.StageSubmit, th.srv.eng.Now())
	if r.hit {
		// DRAM hit: the device — and its token-paced queues — are never
		// involved. Completion arrives after the DRAM service time.
		th.srv.eng.After(th.srv.cfg.CacheHitService, func() {
			th.complete(r)
		})
		return
	}
	if th.srv.cfg.BlockingModel {
		th.blocked = true
	}
	op := flashsim.OpRead
	if r.op == core.OpWrite {
		op = flashsim.OpWrite
	}
	stream := 0
	if th.srv.cfg.StreamByClass && r.op == core.OpWrite &&
		r.conn.tenant.Class == core.BestEffort {
		stream = 1
	}
	th.srv.dev.Submit(&flashsim.Request{
		Op:     op,
		Block:  r.blk,
		Size:   r.size,
		Stream: stream,
		OnComplete: func(sim.Time) {
			if r.fill {
				th.srv.cache.CommitFill(readcache.Key(0, r.blk), r.fillEpoch, nil)
			}
			th.complete(r)
		},
	})
}
