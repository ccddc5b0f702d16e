package experiments

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/dataplane"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/workload"
)

// Fig5 reproduces Figure 5: four tenants share one ReFlex thread — A (LC,
// 120K IOPS, 100% read), B (LC, 70K IOPS, 80% read), C (BE, 95% read) and
// D (BE, 25% read), all with 4KB requests and 500us p95 SLOs for the LC
// tenants. Scenario 1 has A and B using their full reservations; in
// Scenario 2, B issues only 45K IOPS. Each scenario runs with the QoS
// scheduler disabled and enabled.
func Fig5(scale Scale) *Table {
	t := &Table{
		ID:    "fig5",
		Title: "QoS isolation: per-tenant p95 read latency and IOPS (1 ReFlex thread, 4KB)",
		Columns: []string{
			"scenario", "sched", "tenant", "p95_read_us", "IOPS", "slo",
		},
		Notes: "LC SLOs: A=120K IOPS @100%r, B=70K @80%r, both 500us p95; device rate 420K tokens/s",
	}
	warm := scale.dur(30 * sim.Millisecond)
	dur := scale.dur(300 * sim.Millisecond)

	// Points run scenario-major, the QoS scheduler off before on.
	t.addSweep(4, func(i int, rows *Table) {
		scenario, disabled := 1+i/2, i%2 == 0
		// LC tenants "attempt to use all the IOPS in their SLO": mutilate
		// holds the offered rate just under the reservation (a generator
		// cannot sit exactly at the token rate without unbounded critical
		// queueing).
		bOffered := 68_500.0
		if scenario == 2 {
			bOffered = 45_000.0
		}
		r := newRig(3000 + int64(scenario*10))
		cfg := dataplane.DefaultConfig(1, deviceTokenRate(500*sim.Microsecond))
		cfg.DisableQoS = disabled
		srv := dataplane.NewServer(r.eng, r.net, r.dev, cfg)

		a := lcTenant(srv, 1, 120_000, 100, 500*sim.Microsecond)
		b := lcTenant(srv, 2, 70_000, 80, 500*sim.Microsecond)
		c := beTenant(srv, 3)
		d := beTenant(srv, 4)

		type load struct {
			tn      *core.Tenant
			name    string
			iops    float64
			readPct int
			slo     string
		}
		loads := []load{
			{a, "A", 117_500, 100, "LC 120K"},
			{b, "B", bOffered, 80, "LC 70K"},
			{c, "C", 80_000, 95, "BE"},
			{d, "D", 80_000, 25, "BE"},
		}
		results := make(map[string]*workload.Result)
		for li, l := range loads {
			conn := srv.Connect(r.ixClient(int64(li)), l.tn)
			if l.tn.Class == core.LatencyCritical {
				// LC clients pace at their target rate (mutilate's
				// fixed-rate mode).
				results[l.name] = r.pacedLoop(conn, l.iops, l.readPct, 4096,
					warm, dur, int64(scenario*100+li))
			} else {
				results[l.name] = r.openLoop(conn, l.iops, l.readPct, 4096,
					warm, dur, int64(scenario*100+li))
			}
		}
		r.finish()

		sched := "enabled"
		if disabled {
			sched = "disabled"
		}
		for _, l := range loads {
			res := results[l.name]
			rows.Add(fmt.Sprintf("%d", scenario), sched, l.name,
				us(res.ReadLat.Quantile(0.95)), k(res.IOPS()), l.slo)
		}
	})
	return t
}
