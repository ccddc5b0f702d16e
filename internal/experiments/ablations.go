package experiments

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/dataplane"
	"github.com/reflex-go/reflex/internal/sim"
)

// AblationBatching varies the adaptive batching cap (the paper fixes it at
// 64, §3.1) and reports throughput and tail latency under heavy load plus
// tail latency under light load — showing why "adaptive, capped" wins over
// both no batching and unbounded batching.
func AblationBatching(scale Scale) *Table {
	t := &Table{
		ID:      "ablation-batching",
		Title:   "Adaptive batching cap: throughput and p95 at heavy load, p95 at light load",
		Columns: []string{"max_batch", "heavy_IOPS", "heavy_p95_us", "light_p95_us"},
	}
	warm := scale.dur(20 * sim.Millisecond)
	dur := scale.dur(150 * sim.Millisecond)

	batches := []int{1, 8, 64, 512}
	t.addSweep(len(batches), func(i int, rows *Table) {
		batch := batches[i]
		run := func(offered float64, seed int64) (float64, sim.Time) {
			r := newRig(8000 + int64(batch) + seed)
			cfg := dataplane.DefaultConfig(1, 1_200_000*core.TokenUnit)
			cfg.MaxBatch = batch
			srv := dataplane.NewServer(r.eng, r.net, r.dev, cfg)
			tn := beTenant(srv, 1)
			conn := srv.Connect(r.ixClient(seed), tn)
			res := r.openLoop(conn, offered, 100, 1024, warm, dur, seed)
			r.finish()
			return res.IOPS(), res.ReadLat.Quantile(0.95)
		}
		heavyIOPS, heavyP95 := run(800_000, 1)
		_, lightP95 := run(20_000, 2)
		rows.Add(batch, k(heavyIOPS), us(heavyP95), us(lightP95))
	})
	return t
}

// AblationTwoStep compares the two-step run-to-completion model against
// the monolithic blocking model the paper rejects in §4.1 (the thread
// blocks on every Flash access).
func AblationTwoStep(scale Scale) *Table {
	t := &Table{
		ID:      "ablation-twostep",
		Title:   "Two-step run-to-completion vs blocking on Flash accesses (1 core, 1KB reads)",
		Columns: []string{"model", "offered_IOPS", "achieved_IOPS", "p95_us"},
	}
	warm := scale.dur(20 * sim.Millisecond)
	dur := scale.dur(150 * sim.Millisecond)

	loads := []float64{10_000, 100_000, 400_000}
	t.addSweep(2*len(loads), func(i int, rows *Table) {
		blocking, offered := i >= len(loads), loads[i%len(loads)]
		name := "two-step"
		if blocking {
			name = "blocking"
		}
		r := newRig(8100)
		cfg := dataplane.DefaultConfig(1, 1_200_000*core.TokenUnit)
		cfg.DisableQoS = true
		cfg.BlockingModel = blocking
		srv := dataplane.NewServer(r.eng, r.net, r.dev, cfg)
		tn := beTenant(srv, 1)
		conn := srv.Connect(r.ixClient(5), tn)
		res := r.openLoop(conn, offered, 100, 1024, warm, dur, 7)
		r.finish()
		rows.Add(name, k(offered), k(res.IOPS()), us(res.ReadLat.Quantile(0.95)))
	})
	return t
}

// AblationCostModel compares the calibrated request cost model against a
// naive unit-cost model (every I/O costs one token) in the Figure 5
// Scenario-1 setting: with unit costs the scheduler cannot account for
// write amplification and the LC read tenant's SLO is violated.
func AblationCostModel(scale Scale) *Table {
	t := &Table{
		ID:      "ablation-costmodel",
		Title:   "Cost model: calibrated (write=10) vs naive (write=1), Fig.5 scenario",
		Columns: []string{"model", "tenant", "p95_read_us", "IOPS"},
		Notes:   "naive model admits far more write work, destroying the LC read tenant's tail",
	}
	warm := scale.dur(30 * sim.Millisecond)
	dur := scale.dur(250 * sim.Millisecond)

	// Point 0 runs the calibrated model, point 1 the naive one.
	t.addSweep(2, func(i int, rows *Table) {
		naive := i == 1
		name := "calibrated"
		if naive {
			name = "naive"
		}
		r := newRig(8200)
		cfg := dataplane.DefaultConfig(1, deviceTokenRate(500*sim.Microsecond))
		srv := dataplane.NewServer(r.eng, r.net, r.dev, cfg)
		if naive {
			// Unit-cost model: writes cost the same as reads, and the token
			// rate is reinterpreted as plain IOPS.
			naiveModel := core.CostModel{
				ReadCost:         core.TokenUnit,
				ReadOnlyReadCost: core.TokenUnit,
				WriteCost:        core.TokenUnit,
			}
			srv.OverrideModel(naiveModel)
		}
		reader := lcTenant(srv, 1, 120_000, 100, 500*sim.Microsecond)
		writerBE := beTenant(srv, 2)
		rres := r.openLoop(srv.Connect(r.ixClient(1), reader), 120_000, 100, 4096, warm, dur, 11)
		wres := r.openLoop(srv.Connect(r.ixClient(2), writerBE), 120_000, 0, 4096, warm, dur, 12)
		r.finish()
		rows.Add(name, "LC reader", us(rres.ReadLat.Quantile(0.95)), k(rres.IOPS()))
		rows.Add(name, "BE writer", "-", k(wres.IOPS()))
	})
	return t
}

// AblationNegLimit varies the LC burst deficit floor (§3.2.2 sets it to
// -50 tokens) and reports how long an LC tenant's write burst can degrade
// a second LC tenant's reads.
func AblationNegLimit(scale Scale) *Table {
	t := &Table{
		ID:      "ablation-neglimit",
		Title:   "NEG_LIMIT burst floor: victim read p95 under a bursty LC writer",
		Columns: []string{"neg_limit_tokens", "victim_p95_us", "burster_IOPS"},
	}
	warm := scale.dur(20 * sim.Millisecond)
	dur := scale.dur(250 * sim.Millisecond)

	limits := []core.Tokens{0, -50, -2000}
	t.addSweep(len(limits), func(li int, rows *Table) {
		limit := limits[li]
		r := newRig(8300)
		cfg := dataplane.DefaultConfig(1, deviceTokenRate(500*sim.Microsecond))
		srv := dataplane.NewServer(r.eng, r.net, r.dev, cfg)
		srv.OverrideNegLimit(limit * core.TokenUnit)
		victim := lcTenant(srv, 1, 100_000, 100, 500*sim.Microsecond)
		burster := lcTenant(srv, 2, 10_000, 0, sim.Millisecond) // writes, loose SLO
		vres := r.openLoop(srv.Connect(r.ixClient(1), victim), 100_000, 100, 4096, warm, dur, 13)

		// The burster fires 600 back-to-back writes (6000 tokens of
		// demand) every 20ms: with a deep deficit floor, a large slug of
		// expensive writes is admitted at once.
		bconn := srv.Connect(r.ixClient(2), burster)
		submitted := 0
		stop := warm + dur
		var burstTick func()
		burstTick = func() {
			if r.eng.Now() >= stop {
				return
			}
			for i := 0; i < 600; i++ {
				blk := uint64(submitted % (1 << 22))
				bconn.Write(blk, 4096, func(sim.Time) { submitted++ })
			}
			r.eng.After(20*sim.Millisecond, burstTick)
		}
		r.eng.After(warm, burstTick)

		r.finish()
		rows.Add(limit, us(vres.ReadLat.Quantile(0.95)),
			k(float64(submitted)/(float64(dur)/float64(sim.Second))))
	})
	return t
}

// AblationFraction varies the POS_LIMIT donation fraction (§3.2.2 uses
// 90%). In steady state any positive fraction eventually forwards the full
// unused reservation, so the discriminating metric is responsiveness: how
// quickly a best-effort tenant picks up an LC tenant's reservation right
// after the LC tenant goes idle. The donation fraction is the ramp's time
// constant.
func AblationFraction(scale Scale) *Table {
	t := &Table{
		ID:      "ablation-fraction",
		Title:   "Donation fraction: BE throughput in the 25ms after an LC tenant goes idle",
		Columns: []string{"fraction", "BE_IOPS_in_window"},
		Notes:   "LC consumes its full 418K-token reservation (220K IOPS @90%r), then idles at t=100ms",
	}
	_ = scale // the ramp window is physics, not measurement budget
	active := 100 * sim.Millisecond
	window := 25 * sim.Millisecond

	fracs := []float64{0.1, 0.5, 0.9, 1.0}
	t.addSweep(len(fracs), func(i int, rows *Table) {
		frac := fracs[i]
		r := newRig(8400)
		cfg := dataplane.DefaultConfig(2, 420_000*core.TokenUnit)
		srv := dataplane.NewServer(r.eng, r.net, r.dev, cfg)
		srv.OverrideDonateFraction(frac)
		// 90% reads at full token cost (the write share keeps the device
		// out of its read-only discount mode, so the reservation is
		// genuinely consumed while active).
		lc, err := core.NewTenant(1, "lc", core.LatencyCritical,
			core.SLO{IOPS: 220_000, ReadPercent: 90, LatencyP95: 2 * sim.Millisecond})
		if err != nil {
			panic(err)
		}
		srv.RegisterTenantOn(lc, 0)
		be, err := core.NewTenant(2, "be", core.BestEffort, core.SLO{})
		if err != nil {
			panic(err)
		}
		srv.RegisterTenantOn(be, 1)

		// LC at full reservation until t=100ms, then a trickle (which
		// keeps its thread's scheduler rounds running, like continuous
		// polling would).
		r.pacedLoop(srv.Connect(r.ixClient(1), lc), 218_000, 90, 4096, 0, active, 14)
		r.pacedLoop(srv.Connect(r.ixClient(2), lc), 1_000, 90, 4096, active, 4*window, 15)
		// BE offers heavy load throughout; measured only in the ramp
		// window right after the LC tenant idles.
		res := r.openLoop(srv.Connect(r.ixClient(3), be), 400_000, 100, 4096, active, window, 16)
		r.finish()
		rows.Add(fmt.Sprintf("%.0f%%", frac*100), k(res.IOPS()))
	})
	return t
}
