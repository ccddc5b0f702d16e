package experiments

import (
	"fmt"

	"github.com/reflex-go/reflex/internal/flashsim"
	"github.com/reflex-go/reflex/internal/sim"
	"github.com/reflex-go/reflex/internal/workload"
)

// fig1Point measures p95 read latency at one local-device operating point.
func fig1Point(spec flashsim.Spec, readPct, size int, iops float64, dur sim.Time, seed int64) (p95 sim.Time, achieved float64) {
	eng := sim.NewEngine()
	dev := flashsim.New(eng, spec, seed)
	res := workload.OpenLoop{
		IOPS:     iops,
		Mix:      workload.Mix{ReadPercent: readPct, Size: size, Blocks: spec.Blocks},
		Warmup:   dur / 5,
		Duration: dur,
		Seed:     seed + 1,
	}.Start(eng, workload.DeviceTarget(eng, dev))
	eng.Run()
	return res.ReadLat.Quantile(0.95), res.IOPS()
}

// Fig1 reproduces Figure 1: p95 read latency versus total IOPS on local
// device A for six read/write ratios (4KB requests).
func Fig1(scale Scale) *Table {
	t := &Table{
		ID:      "fig1",
		Title:   "Impact of interference on Flash: p95 read latency vs total IOPS (device A, 4KB)",
		Columns: []string{"read%", "offered_IOPS", "achieved_IOPS", "p95_read_us"},
		Notes:   "curves end when p95 exceeds 2ms, as in the figure's y-range",
	}
	dur := scale.dur(200 * sim.Millisecond)
	// Each curve is one sweep point: its steps stay serial because a curve
	// stops at the first step past the y-range.
	readPcts := []int{100, 99, 95, 90, 75, 50}
	t.addSweep(len(readPcts), func(i int, rows *Table) {
		readPct := readPcts[i]
		iops := 25_000.0
		for step := 0; step < 20; step++ {
			p95, achieved := fig1Point(flashsim.DeviceA(), readPct, 4096, iops, dur, 100+int64(step))
			rows.Add(readPct, k(iops), k(achieved), us(p95))
			if p95 > 2*sim.Millisecond {
				break
			}
			iops *= 1.45
		}
	})
	return t
}

// Fig3 reproduces Figure 3: p95 read latency versus weighted IOPS
// (tokens/s) for one device, across mixes and request sizes. The weighting
// uses the device's cost model, which is what makes the curves collapse.
func Fig3(device string, scale Scale) *Table {
	spec, ok := flashsim.Profiles()[device]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown device %q", device))
	}
	t := &Table{
		ID:    "fig3-" + device,
		Title: fmt.Sprintf("Request cost model: p95 read latency vs weighted IOPS (%s, write cost %d)", device, spec.WriteCost),
		Columns: []string{
			"workload", "offered_IOPS", "ktokens_per_s", "p95_read_us",
		},
		Notes: "tokens computed with the device's calibrated cost model",
	}
	dur := scale.dur(200 * sim.Millisecond)

	type mix struct {
		label   string
		readPct int
		size    int
	}
	mixes := []mix{
		{"100%rd (1KB)", 100, 1024},
		{"100%rd (32KB)", 100, 32 * 1024},
		{"100%rd (4KB)", 100, 4096},
		{"99%rd (4KB)", 99, 4096},
		{"95%rd (4KB)", 95, 4096},
		{"90%rd (4KB)", 90, 4096},
		{"75%rd (4KB)", 75, 4096},
		{"50%rd (4KB)", 50, 4096},
	}
	// Token weight per request for a mix, in tokens.
	weight := func(m mix) float64 {
		pages := float64((m.size + 4095) / 4096)
		readCost := 1.0
		if m.readPct == 100 && spec.ReadOnlyHalf {
			readCost = 0.5
		}
		r := float64(m.readPct) / 100
		return pages * (r*readCost + (1-r)*float64(spec.WriteCost))
	}

	// One sweep point per curve, as in Fig1.
	t.addSweep(len(mixes), func(mi int, rows *Table) {
		m := mixes[mi]
		w := weight(m)
		iops := 20_000.0 / w * 4
		for step := 0; step < 18; step++ {
			p95, achieved := fig1Point(spec, m.readPct, m.size, iops, dur, 300+int64(mi*20+step))
			rows.Add(m.label, k(iops), fmt.Sprintf("%.0f", achieved*w/1000), us(p95))
			if p95 > 2*sim.Millisecond {
				break
			}
			iops *= 1.5
		}
	})
	return t
}
