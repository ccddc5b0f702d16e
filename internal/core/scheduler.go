package core

import "fmt"

// Scheduler default parameters (§3.2.2, set empirically in the paper).
const (
	// DefaultNegLimit is the LC burst deficit floor: once a tenant's
	// balance falls to NEG_LIMIT it is rate limited and the control plane
	// is notified ("empirically set to −50 tokens to limit the number of
	// expensive write requests in a burst").
	DefaultNegLimit Tokens = -50 * TokenUnit
	// DefaultDonateFraction is the share of accumulated tokens an LC
	// tenant donates to the global bucket upon reaching POS_LIMIT
	// ("empirically 90%").
	DefaultDonateFraction = 0.9
)

// SubmitFunc receives requests the scheduler admits to the device.
type SubmitFunc func(*Request)

// Scheduler is one dataplane thread's QoS scheduler. It owns a disjoint
// set of tenants (tenants never span threads) and coordinates with sibling
// threads only through SharedState's atomic global token bucket, exactly
// as in §4.1 "Multi-threading operation".
//
// A Scheduler is not safe for concurrent use; each dataplane thread owns
// one.
type Scheduler struct {
	Model CostModel
	// Thread is this scheduler's 0-based thread index for global bucket
	// round marking.
	Thread int
	// Shared is the per-device state shared across threads.
	Shared *SharedState

	// NegLimit and DonateFraction default to the paper's empirical values
	// when zero.
	NegLimit       Tokens
	DonateFraction float64

	// OnNegLimit, when non-nil, is invoked (edge-triggered) when an LC
	// tenant hits the deficit floor — the §3.2.2 control-plane
	// notification for SLO renegotiation.
	OnNegLimit func(*Tenant)

	// ReadOnlyProbe reports whether the device currently serves a
	// read-only load (selects C(read, r=100%)). Nil means never.
	ReadOnlyProbe func() bool

	lc []*Tenant
	be []*Tenant
	// beNext rotates BE service order across rounds for fair access to
	// the global bucket (§3.2.2).
	beNext   int
	prevTime int64
	started  bool

	rounds    uint64
	submitted uint64
}

// NewScheduler creates a scheduler for one dataplane thread.
func NewScheduler(model CostModel, thread int, shared *SharedState) *Scheduler {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	return &Scheduler{
		Model:          model,
		Thread:         thread,
		Shared:         shared,
		NegLimit:       DefaultNegLimit,
		DonateFraction: DefaultDonateFraction,
	}
}

// Register adds a tenant to this scheduler and accounts its rate in the
// shared state. LC rates derive from the tenant's SLO via the cost model.
func (s *Scheduler) Register(t *Tenant) {
	switch t.Class {
	case LatencyCritical:
		t.rate = s.Model.RateForSLO(t.SLO.IOPS, t.SLO.ReadPercent)
		s.Shared.ReserveLC(t.rate)
		s.lc = append(s.lc, t)
	case BestEffort:
		s.Shared.AddBE()
		s.be = append(s.be, t)
	}
}

// Unregister removes a tenant. Queued requests are dropped; callers drain
// tenants before unregistering in normal operation.
func (s *Scheduler) Unregister(t *Tenant) {
	remove := func(list []*Tenant) []*Tenant {
		for i, x := range list {
			if x == t {
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	switch t.Class {
	case LatencyCritical:
		n := len(s.lc)
		s.lc = remove(s.lc)
		if len(s.lc) != n {
			s.Shared.ReleaseLC(t.rate)
		}
	case BestEffort:
		n := len(s.be)
		s.be = remove(s.be)
		if len(s.be) != n {
			s.Shared.RemoveBE()
		}
	}
}

// Tenants returns this scheduler's LC and BE tenants.
func (s *Scheduler) Tenants() (lc, be []*Tenant) { return s.lc, s.be }

// Rounds returns the number of scheduling rounds executed.
func (s *Scheduler) Rounds() uint64 { return s.rounds }

// Submitted returns the number of requests admitted to the device.
func (s *Scheduler) Submitted() uint64 { return s.submitted }

// Enqueue places a request on its tenant's software queue. The request's
// token cost is fixed here from the current device mode. The tenant must
// be registered with this scheduler.
func (s *Scheduler) Enqueue(t *Tenant, r *Request) {
	r.Tenant = t
	if r.CostOverride > 0 {
		r.cost = r.CostOverride
	} else {
		readOnly := s.ReadOnlyProbe != nil && s.ReadOnlyProbe()
		r.cost = s.Model.Cost(r.Op, r.Size, readOnly)
	}
	t.queue.push(r)
	t.demand += r.cost
	t.stats.Enqueued++
}

// Pending returns the total number of queued requests across tenants.
func (s *Scheduler) Pending() int {
	n := 0
	for _, t := range s.lc {
		n += t.queue.len()
	}
	for _, t := range s.be {
		n += t.queue.len()
	}
	return n
}

// Debt returns the sum of the tenants' negative token balances: the
// aggregate overload indicator load shedding watches (a growing debt
// means admission is outrunning the token supply).
func (s *Scheduler) Debt() Tokens {
	var d Tokens
	for _, t := range s.lc {
		if t.tokens < 0 {
			d -= t.tokens
		}
	}
	for _, t := range s.be {
		if t.tokens < 0 {
			d -= t.tokens
		}
	}
	return d
}

// Schedule runs one round of Algorithm 1 at the given time (nanoseconds),
// submitting every admissible request via submit. It returns the number of
// requests submitted.
func (s *Scheduler) Schedule(now int64, submit SubmitFunc) int {
	var dt int64
	if s.started {
		dt = now - s.prevTime
		if dt < 0 {
			panic(fmt.Sprintf("core: scheduling time went backwards: %d -> %d", s.prevTime, now))
		}
	}
	s.prevTime = now
	s.started = true
	s.rounds++

	n := 0
	n += s.scheduleLC(dt, submit)
	n += s.scheduleBE(dt, submit)
	s.Shared.Bucket.MarkRound(s.Thread, now)
	s.submitted += uint64(n)
	return n
}

// scheduleLC implements Algorithm 1 lines 4-12.
func (s *Scheduler) scheduleLC(dt int64, submit SubmitFunc) int {
	n := 0
	for _, t := range s.lc {
		grant := t.generate(t.rate, dt)
		t.pushGrant(grant)

		// LC tenants may burst into deficit down to NEG_LIMIT: submit
		// unconditionally while above the floor.
		for t.demand > 0 && t.tokens > s.NegLimit {
			r := t.queue.pop()
			t.demand -= r.cost
			t.tokens -= r.cost
			t.stats.Submitted++
			t.stats.SubmittedTokens += r.cost
			submit(r)
			n++
		}

		// "We also notify the control plane when this limit is reached to
		// detect tenants with incorrect SLOs that need renegotiation."
		// Edge-triggered: one notification per overload episode.
		if t.tokens <= s.NegLimit {
			t.stats.NegLimitHits++
			if !t.belowNeg {
				t.belowNeg = true
				if s.OnNegLimit != nil {
					s.OnNegLimit(t)
				}
			}
		} else {
			t.belowNeg = false
		}

		// Accumulation cap: donate most of the excess to the global
		// bucket for BE use.
		if limit := t.posLimit(); t.tokens > limit {
			donate := Tokens(float64(t.tokens) * s.donateFraction())
			if donate > 0 {
				s.Shared.Bucket.Add(donate)
				t.tokens -= donate
				t.stats.Donated += donate
			}
		}
	}
	return n
}

// scheduleBE implements Algorithm 1 lines 13-21.
func (s *Scheduler) scheduleBE(dt int64, submit SubmitFunc) int {
	if len(s.be) == 0 {
		return 0
	}
	fairRate := s.Shared.BEFairRate()
	n := 0
	for i := 0; i < len(s.be); i++ {
		t := s.be[(s.beNext+i)%len(s.be)]
		t.pushGrant(t.generate(fairRate, dt))

		// Claim the shortfall from the global bucket.
		if d := t.demand - t.tokens; d > 0 {
			claimed := s.Shared.Bucket.TryTake(d)
			t.tokens += claimed
			t.stats.Claimed += claimed
		}

		// Conditional submit: only while tokens cover the next request.
		for {
			r := t.queue.peek()
			if r == nil || t.tokens < r.cost {
				break
			}
			t.queue.pop()
			t.demand -= r.cost
			t.tokens -= r.cost
			t.stats.Submitted++
			t.stats.SubmittedTokens += r.cost
			submit(r)
			n++
		}

		// No accumulation while idle (DRR-inspired): an empty queue
		// donates the balance back to the global bucket.
		if t.tokens > 0 && t.demand == 0 {
			s.Shared.Bucket.Add(t.tokens)
			t.stats.Donated += t.tokens
			t.tokens = 0
		}
	}
	s.beNext = (s.beNext + 1) % len(s.be)
	return n
}

func (s *Scheduler) donateFraction() float64 {
	if s.DonateFraction <= 0 || s.DonateFraction > 1 {
		return DefaultDonateFraction
	}
	return s.DonateFraction
}
