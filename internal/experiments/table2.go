package experiments

import (
	"github.com/reflex-go/reflex/internal/baseline"
	"github.com/reflex-go/reflex/internal/core"
	"github.com/reflex-go/reflex/internal/hist"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/workload"
)

// Table2 reproduces Table 2: unloaded latency (average and p95) of 4KB
// random reads and writes at queue depth 1, for local SPDK access and the
// remote paths (iSCSI, libaio with Linux/IX clients, ReFlex with Linux/IX
// clients).
func Table2(scale Scale) *Table {
	t := &Table{
		ID:    "tab2",
		Title: "Unloaded Flash latency for 4KB random I/Os (us), incl. round-trip network",
		Columns: []string{
			"system", "read_avg", "read_p95", "write_avg", "write_p95",
		},
	}
	dur := scale.dur(150 * sim.Millisecond)

	measure := func(mk func(r *rig) workload.Target, seed int64) (readLat, writeLat *hist.Hist) {
		r := newRig(seed)
		res := r.qd1(mk(r), 100, 4096, dur, seed+1)
		r.finish()
		// The write probe is paced below the device's sustained random
		// write rate (~60K/s): an unloaded-latency measurement must not
		// fill the write buffer, or it measures backpressure instead.
		r2 := newRig(seed + 50)
		r2.stopAt = dur
		res2 := workload.ClosedLoop{
			Depth:     1,
			ThinkTime: 30 * sim.Microsecond,
			Mix:       workload.Mix{ReadPercent: 0, Size: 4096, Blocks: 1 << 24},
			Duration:  dur,
			Seed:      seed + 51,
		}.Start(r2.eng, mk(r2))
		r2.finish()
		return res.ReadLat, res2.WriteLat
	}

	systems := []struct {
		name string
		mk   func(r *rig) workload.Target
		seed int64
	}{
		{"Local (SPDK)", func(r *rig) workload.Target {
			return baseline.NewLocalNode(r.eng, r.dev, 1).Core(0)
		}, 1000},
		{"iSCSI", func(r *rig) workload.Target {
			return r.iscsiServer(1).Connect(r.linuxClient(7))
		}, 1100},
		{"Libaio (Linux Client)", func(r *rig) workload.Target {
			return r.libaioServer(1).Connect(r.linuxClient(7))
		}, 1200},
		{"Libaio (IX Client)", func(r *rig) workload.Target {
			return r.libaioServer(1).Connect(r.ixClient(7))
		}, 1300},
		{"ReFlex (Linux Client)", func(r *rig) workload.Target {
			srv := r.reflexServer(1, 600_000*core.TokenUnit)
			return srv.Connect(r.linuxClient(7), beTenant(srv, 1))
		}, 1400},
		{"ReFlex (IX Client)", func(r *rig) workload.Target {
			srv := r.reflexServer(1, 600_000*core.TokenUnit)
			return srv.Connect(r.ixClient(7), beTenant(srv, 1))
		}, 1500},
	}
	t.addSweep(len(systems), func(i int, rows *Table) {
		rl, wl := measure(systems[i].mk, systems[i].seed)
		rows.Add(systems[i].name,
			us(int64(rl.Mean())), us(rl.Quantile(0.95)),
			us(int64(wl.Mean())), us(wl.Quantile(0.95)))
	})

	return t
}
