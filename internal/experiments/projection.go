package experiments

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/dataplane"
	"github.com/reflex-go/reflex/internal/flashsim"
	"github.com/reflex-go/reflex/internal/netsim"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/workload"
)

// ExtProjection reproduces the §5.3 projection: "using 4 Flash devices,
// ReFlex will need 8% of the server's compute capacity to saturate a
// 100GbE link with 4KB I/Os." Four devices, each behind its own ReFlex
// server instance, share one 100GbE NIC; a handful of dataplane cores
// carries the whole link.
func ExtProjection(scale Scale) *Table {
	t := &Table{
		ID:    "ext-100gbe",
		Title: "Projection: 4 devices on one 100GbE link (4KB reads)",
		Columns: []string{
			"devices", "cores_total", "offered_IOPS", "achieved_IOPS",
			"GBps", "nic_tx_util", "mean_core_util",
		},
		Notes: "§5.3: a few cores saturate 100GbE; the NIC, not CPU or flash, is the limit",
	}
	warm := scale.dur(20 * sim.Millisecond)
	dur := scale.dur(120 * sim.Millisecond)

	deviceCounts := []int{1, 2, 4}
	t.addSweep(len(deviceCounts), func(i int, rows *Table) {
		devices := deviceCounts[i]
		coresPerDev := 1
		eng := sim.NewEngine()
		net := netsim.New(eng, netsim.HundredGbE())
		shared := net.NewEndpoint("reflex-4dev", netsim.NullStack(), 9100)

		var servers []*dataplane.Server
		for d := 0; d < devices; d++ {
			dev := flashsim.New(eng, flashsim.DeviceA(), int64(9000+d))
			srv := dataplane.NewServerOn(eng, net, shared, dev,
				dataplane.DefaultConfig(coresPerDev, 1_200_000*core.TokenUnit))
			servers = append(servers, srv)
		}

		// Each device gets enough offered load to saturate its server
		// core (~850K 4KB reads/s per core).
		perDevOffered := 900_000.0
		var results []*workload.Result
		for d, srv := range servers {
			tn, err := core.NewTenant(d+1, fmt.Sprintf("dev%d", d), core.BestEffort, core.SLO{})
			if err != nil {
				panic(err)
			}
			srv.RegisterTenant(tn)
			for c := 0; c < 4; c++ {
				client := net.NewEndpoint("client", netsim.IXClientStack(), int64(d*10+c))
				conn := srv.Connect(client, tn)
				results = append(results, workload.OpenLoop{
					IOPS:     perDevOffered / 4,
					Mix:      workload.Mix{ReadPercent: 100, Size: 4096, Blocks: 1 << 24},
					Warmup:   warm,
					Duration: dur,
					Seed:     int64(d*100 + c),
				}.Start(eng, conn))
			}
		}
		eng.RunUntil(warm + dur + 5*sim.Millisecond)

		var achieved float64
		for _, res := range results {
			achieved += res.IOPS()
		}
		var coreUtil float64
		for _, srv := range servers {
			coreUtil += srv.CoreUtilization()
		}
		coreUtil /= float64(len(servers))
		rows.Add(devices, devices*coresPerDev,
			k(perDevOffered*float64(devices)), k(achieved),
			fmt.Sprintf("%.1f", achieved*4096/1e9),
			fmt.Sprintf("%.2f", shared.Port().TxUtilization()),
			fmt.Sprintf("%.2f", coreUtil))
	})
	return t
}
