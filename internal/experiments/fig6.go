package experiments

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/workload"
)

// Fig6a reproduces Figure 6a: multi-core scaling. Each added core brings
// one LC tenant (20K IOPS, 90% read, 2ms p95 SLO); two BE tenants (80%
// read) soak spare bandwidth throughout. Reported: aggregate LC IOPS,
// aggregate BE IOPS, and the total token usage rate.
func Fig6a(scale Scale, maxCores int) *Table {
	t := &Table{
		ID:    "fig6a",
		Title: "Multi-core scaling: LC/BE IOPS and token usage vs cores",
		Columns: []string{
			"cores", "LC_tenants", "LC_IOPS", "BE_IOPS", "ktokens_per_s", "LC_p95_us",
		},
		Notes: "LC: 20K IOPS @90%r, 2ms SLO per core; 2 BE tenants @80%r; rate 570K tokens/s",
	}
	if maxCores <= 0 {
		maxCores = 12
	}
	warm := scale.dur(30 * sim.Millisecond)
	dur := scale.dur(200 * sim.Millisecond)

	t.addSweep(maxCores, func(ci int, rows *Table) {
		cores := ci + 1
		lcTenants := cores // one LC tenant per core, as in the paper
		r := newRig(4000 + int64(cores))
		srv := r.reflexServer(cores, deviceTokenRate(2*sim.Millisecond))

		var lcResults, beResults []*workload.Result
		for i := 0; i < lcTenants; i++ {
			tn, err := core.NewTenant(i+1, fmt.Sprintf("lc%d", i), core.LatencyCritical,
				core.SLO{IOPS: 20_000, ReadPercent: 90, LatencyP95: 2 * sim.Millisecond})
			if err != nil {
				panic(err)
			}
			srv.RegisterTenantOn(tn, i)
			conn := srv.Connect(r.ixClient(int64(i)), tn)
			lcResults = append(lcResults, r.pacedLoop(conn, 19_600, 90, 4096,
				warm, dur, int64(cores*100+i)))
		}
		for i := 0; i < 2; i++ {
			tn, err := core.NewTenant(100+i, fmt.Sprintf("be%d", i), core.BestEffort, core.SLO{})
			if err != nil {
				panic(err)
			}
			srv.RegisterTenantOn(tn, i%cores)
			conn := srv.Connect(r.ixClient(int64(50+i)), tn)
			beResults = append(beResults, r.openLoop(conn, 300_000, 80, 4096,
				warm, dur, int64(cores*100+50+i)))
		}
		r.finish()

		var lcIOPS, beIOPS float64
		lcLat := lcResults[0].ReadLat
		for i, res := range lcResults {
			lcIOPS += res.IOPS()
			if i > 0 {
				lcLat.Merge(res.ReadLat)
			}
		}
		for _, res := range beResults {
			beIOPS += res.IOPS()
		}
		elapsed := float64(r.eng.Now()) / float64(sim.Second)
		tokens := float64(srv.SubmittedTokens()) / float64(core.TokenUnit) / elapsed
		rows.Add(cores, lcTenants, k(lcIOPS), k(beIOPS),
			fmt.Sprintf("%.0f", tokens/1000), us(lcLat.Quantile(0.95)))
	})
	return t
}

// Fig6b reproduces Figure 6b: tenant scaling. Every tenant issues 100 1KB
// read IOPS over its own connection; servers with 1, 2 and 4 cores are
// swept over tenant counts until throughput saturates.
func Fig6b(scale Scale, tenantCounts []int) *Table {
	t := &Table{
		ID:      "fig6b",
		Title:   "Tenant scaling: total IOPS vs tenant count (100 1KB read IOPS each)",
		Columns: []string{"cores", "tenants", "offered_IOPS", "achieved_IOPS"},
		Notes:   "scheduling cost grows with tenant count; a core saturates near 2500 tenants",
	}
	if len(tenantCounts) == 0 {
		tenantCounts = []int{500, 1000, 2000, 2500, 3500, 5000, 7500, 10000}
	}
	warm := scale.dur(20 * sim.Millisecond)
	dur := scale.dur(100 * sim.Millisecond)

	type point struct{ cores, tenants int }
	var points []point
	for _, cores := range []int{1, 2, 4} {
		for _, tenants := range tenantCounts {
			if tenants > cores*3500 {
				continue // far past this configuration's saturation
			}
			points = append(points, point{cores, tenants})
		}
	}
	t.addSweep(len(points), func(pi int, rows *Table) {
		cores, tenants := points[pi].cores, points[pi].tenants
		r := newRig(5000 + int64(cores*100000+tenants))
		srv := r.reflexServer(cores, 1_200_000*core.TokenUnit)
		client := r.ixClient(3)
		var results []*workload.Result
		for i := 0; i < tenants; i++ {
			tn, err := core.NewTenant(i, "", core.LatencyCritical,
				core.SLO{IOPS: 100, ReadPercent: 100, LatencyP95: 10 * sim.Millisecond})
			if err != nil {
				panic(err)
			}
			srv.RegisterTenantOn(tn, i%cores)
			conn := srv.Connect(client, tn)
			results = append(results, r.openLoop(conn, 100, 100, 1024,
				warm, dur, int64(i)))
		}
		r.finish()
		var achieved float64
		for _, res := range results {
			achieved += res.IOPS()
		}
		rows.Add(cores, tenants, k(float64(tenants)*100), k(achieved))
	})
	return t
}

// Fig6c reproduces Figure 6c: connection scaling on one ReFlex thread. A
// single tenant spreads its load over a growing number of connections at
// 100, 500 or 1000 IOPS per connection; per-request CPU inflates as TCP
// state falls out of the LLC.
func Fig6c(scale Scale) *Table {
	t := &Table{
		ID:      "fig6c",
		Title:   "Connection scaling: total IOPS vs connections (1 thread, 1 tenant, 1KB reads)",
		Columns: []string{"iops_per_conn", "conns", "offered_IOPS", "achieved_IOPS"},
	}
	warm := scale.dur(20 * sim.Millisecond)
	dur := scale.dur(100 * sim.Millisecond)

	connCounts := map[int][]int{
		100:  {100, 500, 1000, 2500, 5000, 7500, 10000},
		500:  {100, 250, 500, 1000, 1600, 2200},
		1000: {50, 100, 250, 500, 850, 1100},
	}
	type point struct{ perConn, conns int }
	var points []point
	for _, perConn := range []int{100, 500, 1000} {
		for _, conns := range connCounts[perConn] {
			points = append(points, point{perConn, conns})
		}
	}
	t.addSweep(len(points), func(pi int, rows *Table) {
		perConn, conns := points[pi].perConn, points[pi].conns
		r := newRig(6000 + int64(perConn*100000+conns))
		srv := r.reflexServer(1, 1_500_000*core.TokenUnit)
		tn := beTenant(srv, 1)
		client := r.ixClient(9)
		var results []*workload.Result
		for i := 0; i < conns; i++ {
			conn := srv.Connect(client, tn)
			results = append(results, r.openLoop(conn, float64(perConn), 100, 1024,
				warm, dur, int64(i)))
		}
		r.finish()
		var achieved float64
		for _, res := range results {
			achieved += res.IOPS()
		}
		rows.Add(perConn, conns, k(float64(perConn*conns)), k(achieved))
	})
	return t
}
