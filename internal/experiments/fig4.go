package experiments

import (
	"github.com/reflex-go/reflex/internal/baseline"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/workload"
)

// Fig4 reproduces Figure 4: p95 latency versus throughput for 1KB
// read-only requests — local SPDK, ReFlex, and the libaio server, each
// with 1 and 2 threads. Load is offered open-loop from several IX clients
// (mutilate-style).
func Fig4(scale Scale) *Table {
	t := &Table{
		ID:      "fig4",
		Title:   "Tail latency vs throughput, 1KB read-only requests",
		Columns: []string{"system", "offered_IOPS", "achieved_IOPS", "p95_us"},
		Notes:   "curves stop once p95 exceeds 1ms (the figure's y-range)",
	}
	warm := scale.dur(20 * sim.Millisecond)
	dur := scale.dur(150 * sim.Millisecond)

	type system struct {
		name    string
		threads int
		mk      func(r *rig, threads, clients int) []workload.Target
	}
	systems := []system{
		{"Local", 1, mkLocalTargets},
		{"Local", 2, mkLocalTargets},
		{"ReFlex", 1, mkReflexTargets},
		{"ReFlex", 2, mkReflexTargets},
		{"Libaio", 1, mkLibaioTargets},
		{"Libaio", 2, mkLibaioTargets},
	}
	// One sweep point per system curve; a curve's steps stay serial.
	t.addSweep(len(systems), func(si int, rows *Table) {
		sys := systems[si]
		name := sys.name + suffixT(sys.threads)
		// Sweep offered load geometrically per system.
		offered := 20_000.0
		if sys.name == "Libaio" {
			offered = 10_000.0
		}
		for step := 0; step < 14; step++ {
			r := newRig(2000 + int64(si*100+step))
			clients := 8
			targets := sys.mk(r, sys.threads, clients)
			var results []*workload.Result
			for ci, tgt := range targets {
				results = append(results, r.openLoop(tgt, offered/float64(len(targets)),
					100, 1024, warm, dur, int64(si*1000+step*10+ci)))
			}
			r.finish()
			var achieved float64
			lat := results[0].ReadLat
			for i, res := range results {
				achieved += res.IOPS()
				if i > 0 {
					lat.Merge(res.ReadLat)
				}
			}
			p95 := lat.Quantile(0.95)
			rows.Add(name, k(offered), k(achieved), us(p95))
			if p95 > sim.Millisecond {
				break
			}
			offered *= 1.5
		}
	})
	return t
}

func suffixT(threads int) string {
	if threads == 1 {
		return "-1T"
	}
	return "-2T"
}

func mkLocalTargets(r *rig, threads, clients int) []workload.Target {
	node := baseline.NewLocalNode(r.eng, r.dev, threads)
	out := make([]workload.Target, clients)
	for i := range out {
		out[i] = node.Core(i % threads)
	}
	return out
}

func mkReflexTargets(r *rig, threads, clients int) []workload.Target {
	srv := r.reflexServer(threads, 1_200_000*core.TokenUnit)
	out := make([]workload.Target, clients)
	for i := range out {
		// One tenant per thread so both threads carry load.
		tn := beTenant(srv, i%threads+1)
		out[i] = srv.Connect(r.ixClient(int64(40+i)), tn)
	}
	return out
}

func mkLibaioTargets(r *rig, threads, clients int) []workload.Target {
	srv := r.libaioServer(threads)
	out := make([]workload.Target, clients)
	for i := range out {
		out[i] = srv.Connect(r.ixClient(int64(60 + i)))
	}
	return out
}
