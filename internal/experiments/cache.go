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

// CacheBenchResult carries the numeric outcomes of ext-cache that the
// bench gates check (cmd/reflex-bench -cache): the tiered read cache must
// actually buy best-effort throughput at a real hit ratio without hurting
// LC tail latency, and stream-segregated placement must actually cut
// write amplification versus mixing lifetimes.
type CacheBenchResult struct {
	// Part 1 (tiered cache, Fig-5 mixed tenants with Zipf reads).
	BEIOPSOff    float64 // aggregate best-effort IOPS, cache off
	BEIOPSOn     float64 // aggregate best-effort IOPS, cache on
	HitRatio     float64 // cache hit ratio over the run (0..1)
	LCReadP99Off int64   // LC tenant A p99 read latency (ns), cache off
	LCReadP99On  int64   // LC tenant A p99 read latency (ns), cache on

	// Part 2 (GC-aware placement, hot/cold writers).
	WriteAmpMixed      float64 // device write amplification, 1 stream
	WriteAmpSegregated float64 // device write amplification, 2 streams
}

// BESpeedup is the best-effort throughput multiple the cache bought.
func (r CacheBenchResult) BESpeedup() float64 {
	if r.BEIOPSOff <= 0 {
		return 0
	}
	return r.BEIOPSOn / r.BEIOPSOff
}

// cacheWorkingSet is the Zipf address range of part 1; cacheBlocks the
// DRAM cache capacity (8192 blocks = 32 MiB). The cache holds <1% of the
// working set, so any hit ratio it earns comes from skew, not size.
const (
	cacheWorkingSet = 1 << 20
	cacheBlocks     = 8192
	cacheZipfSkew   = 1.3
)

// cachePlacementSpec is device A shrunk to an explicit-erase-unit
// geometry: 4 channels x 6 units x 32 pages = 768 physical pages, so a
// few thousand writes exercise real GC.
func cachePlacementSpec(streams int) flashsim.Spec {
	s := flashsim.DeviceA()
	s.Name = "placed"
	s.Channels = 4
	s.EraseUnitPages = 32
	s.UnitsPerChannel = 6
	s.PlacementStreams = streams
	return s
}

// ExtCache runs the two-part tiered-cache/placement experiment and
// returns its table; CacheBench exposes the raw numbers for gating.
func ExtCache(scale Scale) *Table {
	_, t := CacheBench(scale)
	return t
}

// CacheBench runs ext-cache and returns both the gateable numbers and
// the human-readable table.
//
// Part 1 replays the Figure-5 tenant mix — A (LC, 120K IOPS reserved,
// 100% read, paced) plus best-effort C (95% read) and D (25% read) —
// with block addresses Zipf-distributed over a 1M-block working set,
// once without and once with a 8192-block DRAM cache, at identical
// device token budgets. Hits are charged CacheServeCost instead of a
// device read, so every hit returns tokens to the shared pool and the
// best-effort tenants get to spend them.
//
// Part 2 drives a hot overwriter (LC class, 64-block range) against a
// cold writer (BE class, 400-block range) on the explicit erase-unit
// device, once with both classes mixed into one placement stream and
// once segregated (StreamByClass), and reports device write
// amplification for each.
func CacheBench(scale Scale) (CacheBenchResult, *Table) {
	t := &Table{
		ID:    "ext-cache",
		Title: "Tiered DRAM read cache + GC-aware placement (1 ReFlex thread, 4KB)",
		Columns: []string{
			"part", "config", "tenant", "p95_read_us", "p99_read_us", "IOPS", "hit_pct", "write_amp",
		},
		Notes: fmt.Sprintf("cache %d blocks over Zipf(%.1f) x %dK-block set; identical 420K tokens/s budgets; hit_pct is config-global",
			cacheBlocks, cacheZipfSkew, cacheWorkingSet/1000),
	}
	var out CacheBenchResult

	// The cache-on configs start cold: every hot block must miss, clear
	// the admission hurdle and fill before steady state, so the warmup
	// is long enough to cover that transient plus the queue drain.
	warm := scale.dur(100 * sim.Millisecond)
	dur := scale.dur(300 * sim.Millisecond)

	// Points 0 and 1 are part 1 without and with the cache, points 2 and 3
	// part 2 with one and two placement streams. Each point sets its own
	// fields of out.
	t.addSweep(4, func(i int, rows *Table) {
		if i < 2 {
			cacheTierPoint(i == 1, warm, dur, rows, &out)
		} else {
			cachePlacementPoint(i-1, warm, dur, rows, &out)
		}
	})
	return out, t
}

// cacheTierPoint runs one configuration of ext-cache part 1.
func cacheTierPoint(cacheOn bool, warm, dur sim.Time, rows *Table, out *CacheBenchResult) {
	// A 100GbE link keeps the NIC out of the way: with the cache on,
	// aggregate read throughput exceeds what 10GbE can carry in 4KB
	// responses, and the experiment is about token accounting, not
	// wire saturation (ext-100gbe covers that regime).
	eng := sim.NewEngine()
	r := &rig{
		eng: eng,
		net: netsim.New(eng, netsim.HundredGbE()),
	}
	r.dev = flashsim.New(eng, flashsim.DeviceA(), 4200)
	cfg := dataplane.DefaultConfig(1, deviceTokenRate(500*sim.Microsecond))
	if cacheOn {
		cfg.CacheBlocks = cacheBlocks
		cfg.CacheAdmit = "cost"
		cfg.CacheHitService = 2 * sim.Microsecond
	}
	srv := dataplane.NewServer(r.eng, r.net, r.dev, cfg)

	a := lcTenant(srv, 1, 120_000, 100, 500*sim.Microsecond)
	c := beTenant(srv, 3)
	d := beTenant(srv, 4)

	// Reads are Zipf-skewed over the working set; write streams are
	// uniform (a skewed read set over a spread write set is the usual
	// shape of caching-friendly storage workloads — and a write
	// stream aimed at the read hot set would simply invalidate the
	// cache as fast as it fills, which is the cache-off row again).
	// C keeps Fig 5's 95/5 mix via two generators on one tenant.
	type load struct {
		tn      *core.Tenant
		name    string
		iops    float64
		readPct int
		skew    float64
		paced   bool
	}
	loads := []load{
		{a, "A", 117_500, 100, cacheZipfSkew, true},
		{c, "C", 200_000, 100, cacheZipfSkew, false},
		{c, "Cw", 10_000, 0, 0, false},
		{d, "D", 40_000, 25, 0, false},
	}
	results := make(map[string]*workload.Result)
	for li, l := range loads {
		conn := srv.Connect(r.ixClient(int64(li)), l.tn)
		results[l.name] = r.zipfLoop(conn, l.iops, l.readPct, 4096,
			cacheWorkingSet, l.skew, warm, dur, int64(500+li), l.paced)
	}
	r.finish()
	results["C"].Merge(results["Cw"])
	delete(results, "Cw")
	loads = append(loads[:2], loads[3])

	config := "cache off"
	hitPct := "-"
	if cacheOn {
		config = "cache on"
		hitPct = fmt.Sprintf("%.0f", srv.Cache().HitRatio()*100)
	}
	beIOPS := results["C"].IOPS() + results["D"].IOPS()
	for _, l := range loads {
		res := results[l.name]
		rows.Add("1-cache", config, l.name,
			us(res.ReadLat.Quantile(0.95)), us(res.ReadLat.Quantile(0.99)),
			k(res.IOPS()), hitPct, "-")
	}
	if cacheOn {
		out.BEIOPSOn = beIOPS
		out.HitRatio = srv.Cache().HitRatio()
		out.LCReadP99On = results["A"].ReadLat.Quantile(0.99)
	} else {
		out.BEIOPSOff = beIOPS
		out.LCReadP99Off = results["A"].ReadLat.Quantile(0.99)
	}
}

// cachePlacementPoint runs one configuration of ext-cache part 2.
func cachePlacementPoint(streams int, warm, dur sim.Time, rows *Table, out *CacheBenchResult) {
	r := newRigOn(cachePlacementSpec(streams), 4300)
	cfg := dataplane.DefaultConfig(1, deviceTokenRate(2*sim.Millisecond))
	cfg.StreamByClass = streams > 1
	srv := dataplane.NewServer(r.eng, r.net, r.dev, cfg)

	// Hot overwriter is LC (stream 0 when segregated), cold writer BE
	// (stream 1): same split the real server draws from tenant class.
	hot := lcTenant(srv, 1, 40_000, 20, 2*sim.Millisecond)
	cold := beTenant(srv, 2)

	hotConn := srv.Connect(r.ixClient(1), hot)
	coldConn := srv.Connect(r.ixClient(2), cold)
	r.zipfLoop(hotConn, 30_000, 20, 4096, 64, 0, warm, dur, 61, true)
	r.zipfLoop(offsetTarget(coldConn, 1024), 7_500, 20, 4096, 400, 0, warm, dur, 62, false)
	r.finish()

	config := "mixed (1 stream)"
	if streams > 1 {
		config = "segregated (2 streams)"
	}
	wa := r.dev.WriteAmp()
	rows.Add("2-placement", config, "-", "-", "-", "-", "-", fmt.Sprintf("%.3f", wa))
	if streams > 1 {
		out.WriteAmpSegregated = wa
	} else {
		out.WriteAmpMixed = wa
	}
}
