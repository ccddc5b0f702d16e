package core

import (
	"testing"
)

const usec = int64(1000) // ns

func newLC(t *testing.T, id, iops, readPct int) *Tenant {
	t.Helper()
	tn, err := NewTenant(id, "lc", LatencyCritical, SLO{IOPS: iops, ReadPercent: readPct, LatencyP95: 500 * usec})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func newBE(t *testing.T, id int) *Tenant {
	t.Helper()
	tn, err := NewTenant(id, "be", BestEffort, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// fill keeps a tenant's queue topped up with identical requests.
func fill(s *Scheduler, tn *Tenant, op OpType, n int) {
	for i := 0; i < n; i++ {
		s.Enqueue(tn, &Request{Op: op, Size: 4096})
	}
}

func TestNewTenantValidation(t *testing.T) {
	if _, err := NewTenant(1, "bad", LatencyCritical, SLO{}); err == nil {
		t.Fatal("LC tenant without SLO accepted")
	}
	if _, err := NewTenant(1, "be", BestEffort, SLO{}); err != nil {
		t.Fatalf("BE tenant without SLO rejected: %v", err)
	}
}

func TestSLOValidate(t *testing.T) {
	bad := []SLO{
		{IOPS: 0, ReadPercent: 80, LatencyP95: 1},
		{IOPS: 1, ReadPercent: -1, LatencyP95: 1},
		{IOPS: 1, ReadPercent: 101, LatencyP95: 1},
		{IOPS: 1, ReadPercent: 80, LatencyP95: 0},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad SLO %d accepted", i)
		}
	}
}

func TestLCTenantReceivesSLORate(t *testing.T) {
	// An LC tenant with saturating demand is throttled to exactly its SLO
	// rate over a long run.
	shared := NewSharedState(1, 420_000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	lc := newLC(t, 1, 100_000, 100)
	s.Register(lc)

	submitted := 0
	interval := 100 * usec // 100us rounds
	for now := int64(0); now <= 1e9; now += interval {
		// Keep demand saturated: twice the SLO rate.
		fill(s, lc, OpRead, 20)
		submitted += s.Schedule(now, func(*Request) {})
	}
	// 1 second at 100K IOPS, plus the 50-token initial burst allowance.
	if submitted < 99_000 || submitted > 101_000 {
		t.Errorf("LC submitted %d in 1s, want ~100000", submitted)
	}
}

func TestLCWeightedRate(t *testing.T) {
	// 80% read SLO: rate is weighted (0.8*1 + 0.2*10 = 2.8 tokens/IO).
	shared := NewSharedState(1, 1_000_000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	lc := newLC(t, 1, 70_000, 80)
	s.Register(lc)
	if lc.Rate() != 196_000*TokenUnit {
		t.Fatalf("rate = %d, want 196M mt/s", lc.Rate())
	}
	if shared.LCReserved() != 196_000*TokenUnit {
		t.Fatalf("reserved = %d", shared.LCReserved())
	}
}

func TestLCBurstsToNegLimitThenRateLimited(t *testing.T) {
	// With no time elapsing (zero token generation), an LC tenant may burst
	// only until its balance hits NEG_LIMIT = -50 tokens.
	shared := NewSharedState(1, 420_000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	lc := newLC(t, 1, 100_000, 100)
	s.Register(lc)
	fill(s, lc, OpRead, 200)

	n := s.Schedule(0, func(*Request) {})
	if n != 50 {
		t.Errorf("initial burst submitted %d, want 50 (NEG_LIMIT/-1 token)", n)
	}
	if lc.Tokens() != -50*TokenUnit {
		t.Errorf("tokens = %d, want -50000", lc.Tokens())
	}
	// Further zero-dt rounds submit nothing.
	if n := s.Schedule(0, func(*Request) {}); n != 0 {
		t.Errorf("rate-limited tenant submitted %d", n)
	}
}

func TestLCNegLimitWithExpensiveWrites(t *testing.T) {
	// Writes cost 10 tokens: the burst is limited to 5 writes
	// ("to limit the number of expensive write requests in a burst").
	shared := NewSharedState(1, 420_000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	lc := newLC(t, 1, 10_000, 0)
	s.Register(lc)
	fill(s, lc, OpWrite, 20)
	if n := s.Schedule(0, func(*Request) {}); n != 5 {
		t.Errorf("write burst = %d, want 5", n)
	}
}

func TestOnNegLimitEdgeTriggered(t *testing.T) {
	shared := NewSharedState(1, 420_000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	lc := newLC(t, 1, 100_000, 100)
	s.Register(lc)
	notified := 0
	s.OnNegLimit = func(tn *Tenant) {
		if tn != lc {
			t.Error("notified for wrong tenant")
		}
		notified++
	}
	fill(s, lc, OpRead, 200)
	s.Schedule(0, func(*Request) {}) // burst into the floor
	s.Schedule(0, func(*Request) {}) // still at floor: no new notification
	s.Schedule(0, func(*Request) {})
	if notified != 1 {
		t.Errorf("notified %d times, want 1 (edge-triggered)", notified)
	}
	// Recover (generate tokens, drain queue), then burst again -> notify again.
	for now := int64(usec); now <= 3e9; now += 1e6 {
		s.Schedule(now, func(*Request) {})
	}
	if lc.Tokens() <= DefaultNegLimit {
		t.Fatalf("tenant did not recover: %d", lc.Tokens())
	}
	// A burst larger than any accrued balance drives the tenant back to
	// the floor.
	fill(s, lc, OpRead, 300_000)
	s.Schedule(3e9+1, func(*Request) {})
	if notified != 2 {
		t.Errorf("notified %d times after second burst, want 2", notified)
	}
}

func TestLCDonatesAbovePosLimit(t *testing.T) {
	// An idle LC tenant accumulates at most ~3 rounds of grants; the rest
	// is donated (90%) to the global bucket.
	shared := NewSharedState(2, 420_000*TokenUnit) // 2 threads: bucket survives rounds
	s := NewScheduler(modelA(), 0, shared)
	lc := newLC(t, 1, 100_000, 100) // 100 tokens/ms
	s.Register(lc)
	for now := int64(0); now <= 100e6; now += 1e6 { // 100 rounds of 1ms
		s.Schedule(now, func(*Request) {})
	}
	// Grant per 1ms round = 100 tokens; POS_LIMIT = 300 tokens.
	if lc.Tokens() > 310*TokenUnit {
		t.Errorf("idle LC accumulated %d mt, want <= ~POS_LIMIT (300K)", lc.Tokens())
	}
	st := lc.Stats()
	if st.Donated == 0 {
		t.Error("idle LC never donated to the global bucket")
	}
	if shared.Bucket.Tokens() == 0 {
		t.Error("global bucket empty despite donations (no reset should occur)")
	}
}

func TestBEFairSharing(t *testing.T) {
	// Two saturated BE tenants split the unallocated rate equally.
	shared := NewSharedState(1, 420_000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	be1, be2 := newBE(t, 1), newBE(t, 2)
	s.Register(be1)
	s.Register(be2)

	got := map[*Tenant]int{}
	interval := 100 * usec
	for now := int64(0); now <= 1e9; now += interval {
		fill(s, be1, OpRead, 40)
		fill(s, be2, OpRead, 40)
		s.Schedule(now, func(r *Request) { got[r.Tenant]++ })
	}
	// 420K tokens/s split two ways = 210K reads/s each.
	for _, tn := range []*Tenant{be1, be2} {
		if got[tn] < 200_000 || got[tn] > 220_000 {
			t.Errorf("BE tenant submitted %d, want ~210000", got[tn])
		}
	}
}

func TestBEConditionalSubmitAccumulates(t *testing.T) {
	// A BE tenant must accumulate enough tokens before an expensive write
	// is admitted; it is never allowed into deficit.
	shared := NewSharedState(2, 10_000*TokenUnit) // 10 tokens/ms unallocated
	s := NewScheduler(modelA(), 0, shared)
	be := newBE(t, 1)
	s.Register(be)
	s.Enqueue(be, &Request{Op: OpWrite, Size: 4096}) // 10 tokens

	submitted := -1
	round := 0
	for now := int64(0); now <= 2e6; now += 100 * usec { // 0.1ms rounds: 1 token each
		round++
		if s.Schedule(now, func(*Request) {}) > 0 && submitted < 0 {
			submitted = round
		}
		if be.Tokens() < 0 {
			t.Fatalf("BE tenant went into deficit: %d", be.Tokens())
		}
	}
	if submitted < 0 {
		t.Fatal("write never submitted")
	}
	// Needs 10 tokens at ~1 token/round: not before round 10.
	if submitted < 10 {
		t.Errorf("write submitted in round %d, want >= 10 (must accumulate)", submitted)
	}
}

func TestBEClaimsFromGlobalBucket(t *testing.T) {
	// LC reserves the entire token rate, so the BE fair rate is zero; the
	// BE tenant can still make progress on tokens donated by the idle LC.
	shared := NewSharedState(1, 100_000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	lc := newLC(t, 1, 100_000, 100) // reserves all 100K tokens/s
	be := newBE(t, 2)
	s.Register(lc)
	s.Register(be)
	if shared.BEFairRate() != 0 {
		t.Fatalf("BE fair rate = %d, want 0", shared.BEFairRate())
	}

	submitted := 0
	for now := int64(0); now <= 1e9; now += 100 * usec {
		fill(s, be, OpRead, 20) // saturate BE demand; LC stays idle
		submitted += s.Schedule(now, func(*Request) {})
	}
	// The idle LC donates ~90% of its 100K tokens/s; BE must capture a
	// large share of the device.
	if submitted < 60_000 {
		t.Errorf("BE submitted %d via global bucket, want > 60000", submitted)
	}
	if be.Stats().Claimed == 0 {
		t.Error("BE never claimed from the global bucket")
	}
}

func TestBENoAccumulationWhileIdle(t *testing.T) {
	// An idle BE tenant must not hoard tokens and burst later (§3.2.2,
	// DRR-inspired). The global bucket is drained every ResetInterval, so
	// the idle tenant can reclaim at most that window's worth of its own
	// donations.
	shared := NewSharedState(1, 100_000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	be := newBE(t, 1)
	s.Register(be)
	for now := int64(0); now <= 1e9; now += 1e6 { // 1 idle second
		s.Schedule(now, func(*Request) {})
		if be.Tokens() != 0 {
			t.Fatalf("idle BE holds %d mt at t=%d", be.Tokens(), now)
		}
	}
	// Now a burst arrives. Instant admission is bounded by the global
	// bucket's reset window (5ms x 100K tokens/s = 500 tokens = 50
	// writes), not the full idle second's worth (10K writes).
	fill(s, be, OpWrite, 1000)
	if n := s.Schedule(1e9, func(*Request) {}); n > 55 {
		t.Errorf("idle BE burst admitted %d requests instantly, want <= ~50", n)
	}
}

func TestBERoundRobinRotates(t *testing.T) {
	// With a tiny global bucket refilled each round, rotation must spread
	// bucket access across BE tenants rather than starving the later one.
	shared := NewSharedState(2, 0) // no fair rate at all
	s := NewScheduler(modelA(), 0, shared)
	be1, be2 := newBE(t, 1), newBE(t, 2)
	s.Register(be1)
	s.Register(be2)
	got := map[*Tenant]int{}
	for now := int64(0); now < 100e6; now += 1e6 {
		fill(s, be1, OpRead, 1)
		fill(s, be2, OpRead, 1)
		shared.Bucket.Add(1 * TokenUnit) // exactly one request's worth
		s.Schedule(now, func(r *Request) { got[r.Tenant]++ })
	}
	if got[be1] == 0 || got[be2] == 0 {
		t.Fatalf("round-robin starved a tenant: %d vs %d", got[be1], got[be2])
	}
	diff := got[be1] - got[be2]
	if diff < -10 || diff > 10 {
		t.Errorf("rotation unfair: %d vs %d", got[be1], got[be2])
	}
}

func TestCrossThreadTokenExchange(t *testing.T) {
	// LC on thread 0 donates spare tokens; BE on thread 1 consumes them.
	// This is the only cross-thread coordination in the design (§4.1).
	shared := NewSharedState(2, 100_000*TokenUnit)
	s0 := NewScheduler(modelA(), 0, shared)
	s1 := NewScheduler(modelA(), 1, shared)
	lc := newLC(t, 1, 100_000, 100)
	be := newBE(t, 2)
	s0.Register(lc)
	s1.Register(be)

	submitted := 0
	for now := int64(0); now <= 1e9; now += 100 * usec {
		fill(s1, be, OpRead, 20)
		s0.Schedule(now, func(*Request) {})
		submitted += s1.Schedule(now, func(*Request) {})
	}
	if submitted < 60_000 {
		t.Errorf("cross-thread BE submitted %d, want > 60000", submitted)
	}
	if shared.Bucket.Resets() == 0 {
		t.Error("global bucket never reset despite both threads marking rounds")
	}
}

func TestScenario1TokenLevel(t *testing.T) {
	// §5.4 Scenario 1 at the scheduler level: A(LC 120K@100%r),
	// B(LC 70K@80%r), C(BE 95%r), D(BE 25%r) on a 420K tokens/s device.
	shared := NewSharedState(1, 420_000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	a := newLC(t, 1, 120_000, 100)
	b := newLC(t, 2, 70_000, 80)
	c, d := newBE(t, 3), newBE(t, 4)
	for _, tn := range []*Tenant{a, b, c, d} {
		s.Register(tn)
	}

	rng := newDetRand(99)
	iops := map[*Tenant]int{}
	reads := map[*Tenant]int{}
	interval := 100 * usec
	mix := map[*Tenant]int{a: 100, b: 80, c: 95, d: 25}
	demand := map[*Tenant]int{a: 12, b: 7, c: 40, d: 40} // per round; C/D saturate
	for now := int64(0); now <= 1e9; now += interval {
		for tn, n := range demand {
			for i := 0; i < n; i++ {
				op := OpRead
				if rng.intn(100) >= mix[tn] {
					op = OpWrite
				}
				s.Enqueue(tn, &Request{Op: op, Size: 4096})
			}
		}
		s.Schedule(now, func(r *Request) {
			iops[r.Tenant]++
			if r.Op == OpRead {
				reads[r.Tenant]++
			}
		})
	}

	// LC tenants meet their IOPS SLOs.
	if iops[a] < 118_000 || iops[a] > 123_000 {
		t.Errorf("tenant A IOPS = %d, want ~120000", iops[a])
	}
	if iops[b] < 68_000 || iops[b] > 73_000 {
		t.Errorf("tenant B IOPS = %d, want ~70000", iops[b])
	}
	// BE tenants split the remaining 104K tokens/s fairly: C (cost ~1.45/IO)
	// achieves much higher IOPS than D (cost ~7.75/IO).
	if iops[c] < 30_000 || iops[c] > 42_000 {
		t.Errorf("tenant C IOPS = %d, want ~36000", iops[c])
	}
	if iops[d] < 4_000 || iops[d] > 9_000 {
		t.Errorf("tenant D IOPS = %d, want ~6700", iops[d])
	}
	if iops[c] < 3*iops[d] {
		t.Errorf("C (%d) should far exceed D (%d): writes cost 10x", iops[c], iops[d])
	}
}

func TestScenario2UnusedLCTokensGoToBE(t *testing.T) {
	// §5.4 Scenario 2: tenant B issues only 45K of its reserved 70K IOPS;
	// BE tenants reach higher throughput than in Scenario 1.
	run := func(bDemandPerRound int) (beTotal int) {
		shared := NewSharedState(1, 420_000*TokenUnit)
		s := NewScheduler(modelA(), 0, shared)
		a := newLC(t, 1, 120_000, 100)
		b := newLC(t, 2, 70_000, 80)
		c, d := newBE(t, 3), newBE(t, 4)
		for _, tn := range []*Tenant{a, b, c, d} {
			s.Register(tn)
		}
		rng := newDetRand(7)
		interval := 100 * usec
		for now := int64(0); now <= 1e9; now += interval {
			fill(s, a, OpRead, 12)
			for i := 0; i < bDemandPerRound; i++ {
				op := OpRead
				if rng.intn(100) >= 80 {
					op = OpWrite
				}
				s.Enqueue(b, &Request{Op: op, Size: 4096})
			}
			for i := 0; i < 40; i++ {
				op := OpRead
				if rng.intn(100) >= 95 {
					op = OpWrite
				}
				s.Enqueue(c, &Request{Op: op, Size: 4096})
				op = OpRead
				if rng.intn(100) >= 25 {
					op = OpWrite
				}
				s.Enqueue(d, &Request{Op: op, Size: 4096})
			}
			s.Schedule(now, func(r *Request) {
				if r.Tenant == c || r.Tenant == d {
					beTotal++
				}
			})
		}
		return beTotal
	}
	full := run(7)    // B uses its full 70K reservation
	reduced := run(4) // B issues only ~40K IOPS
	if reduced <= full {
		t.Errorf("BE throughput did not increase when B under-used its SLO: %d vs %d",
			reduced, full)
	}
}

func TestEnqueueReadOnlyProbe(t *testing.T) {
	shared := NewSharedState(1, 1000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	ro := false
	s.ReadOnlyProbe = func() bool { return ro }
	be := newBE(t, 1)
	s.Register(be)

	r1 := &Request{Op: OpRead, Size: 4096}
	s.Enqueue(be, r1)
	if r1.Cost() != 1000 {
		t.Errorf("normal read cost = %d, want 1000", r1.Cost())
	}
	ro = true
	r2 := &Request{Op: OpRead, Size: 4096}
	s.Enqueue(be, r2)
	if r2.Cost() != 500 {
		t.Errorf("read-only read cost = %d, want 500", r2.Cost())
	}
	if be.Demand() != 1500 {
		t.Errorf("demand = %d, want 1500", be.Demand())
	}
	if be.QueueLen() != 2 {
		t.Errorf("queue len = %d", be.QueueLen())
	}
}

func TestScheduleTimeBackwardsPanics(t *testing.T) {
	shared := NewSharedState(1, 1000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	s.Schedule(100, func(*Request) {})
	defer func() {
		if recover() == nil {
			t.Error("backwards time did not panic")
		}
	}()
	s.Schedule(50, func(*Request) {})
}

func TestRegisterUnregister(t *testing.T) {
	shared := NewSharedState(1, 1000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	lc := newLC(t, 1, 1000, 100)
	be := newBE(t, 2)
	s.Register(lc)
	s.Register(be)
	lcs, bes := s.Tenants()
	if len(lcs) != 1 || len(bes) != 1 {
		t.Fatal("tenants not registered")
	}
	s.Unregister(lc)
	if shared.LCReserved() != 0 {
		t.Errorf("LC rate not released: %d", shared.LCReserved())
	}
	s.Unregister(be)
	if shared.BECount() != 0 {
		t.Errorf("BE count not decremented: %d", shared.BECount())
	}
	// Unregistering twice is harmless.
	s.Unregister(lc)
	s.Unregister(be)
	if shared.LCReserved() != 0 || shared.BECount() != 0 {
		t.Error("double unregister corrupted shared state")
	}
}

func TestNewSchedulerInvalidModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid model did not panic")
		}
	}()
	NewScheduler(CostModel{}, 0, NewSharedState(1, 0))
}

func TestSchedulerCounters(t *testing.T) {
	shared := NewSharedState(1, 420_000*TokenUnit)
	s := NewScheduler(modelA(), 0, shared)
	be := newBE(t, 1)
	s.Register(be)
	fill(s, be, OpRead, 5)
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending())
	}
	s.Schedule(0, func(*Request) {})
	s.Schedule(1e9, func(*Request) {})
	if s.Rounds() != 2 {
		t.Fatalf("Rounds = %d, want 2", s.Rounds())
	}
	if s.Submitted() != 5 {
		t.Fatalf("Submitted = %d, want 5", s.Submitted())
	}
	if be.Stats().Enqueued != 5 || be.Stats().Submitted != 5 {
		t.Fatalf("tenant stats = %+v", be.Stats())
	}
}

func TestSchedulerDebt(t *testing.T) {
	cases := []struct {
		name   string
		lc, be []Tokens // tenant balances
		want   Tokens
	}{
		{"no tenants", nil, nil, 0},
		{"all in credit", []Tokens{5, 0}, []Tokens{7}, 0},
		{"lc debt only", []Tokens{-4, 9}, []Tokens{3}, 4},
		{"be debt only", nil, []Tokens{-2, -3, 1}, 5},
		{"both classes", []Tokens{-10}, []Tokens{-6, 20}, 16},
	}
	for _, tc := range cases {
		s := NewScheduler(modelA(), 0, NewSharedState(1, 1000*TokenUnit))
		id := 1
		for _, b := range tc.lc {
			tn := newLC(t, id, 100, 100)
			tn.tokens = b
			s.Register(tn)
			id++
		}
		for _, b := range tc.be {
			tn := newBE(t, id)
			tn.tokens = b
			s.Register(tn)
			id++
		}
		if got := s.Debt(); got != tc.want {
			t.Errorf("%s: Debt() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// detRand is a tiny deterministic generator so scheduler tests do not
// depend on math/rand ordering.
type detRand struct{ state uint64 }

func newDetRand(seed uint64) *detRand { return &detRand{state: seed*2862933555777941757 + 3037000493} }

func (d *detRand) intn(n int) int {
	d.state = d.state*6364136223846793005 + 1442695040888963407
	return int((d.state >> 33) % uint64(n))
}
