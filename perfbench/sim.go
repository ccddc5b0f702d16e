package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"github.com/reflex-go/reflex/internal/experiments"
)

// simScale is sim_paper's fixed reduced scale. fig6b's windows sit at
// their 10 ms floor here; fig5's shrink to a twentieth.
const simScale = 0.05

// simExhibits are the exhibits sim_paper regenerates, in order.
var simExhibits = []string{"fig5", "fig6b"}

// simDigests holds each exhibit's SHA-256 at simScale; the simulator's
// seeds are fixed in internal/experiments, so the tables are
// byte-deterministic. Regenerate with --write-digests after an
// intentional change to simulated behaviour.
//
//go:embed sim_digests.txt
var simDigests string

func expectedDigest(id string) string {
	for _, line := range strings.Split(simDigests, "\n") {
		if name, sum, ok := strings.Cut(strings.TrimSpace(line), " "); ok && name == id {
			return sum
		}
	}
	return ""
}

// regenerate runs one exhibit and returns its wall time and whether its
// table matches the kept digest.
func regenerate(id string) (time.Duration, bool, error) {
	t0 := time.Now()
	tbl, err := experiments.Run(id, experiments.Scale(simScale))
	d := time.Since(t0)
	if err != nil {
		return 0, false, err
	}
	sum := sha256.Sum256([]byte(tbl.Format()))
	return d, hex.EncodeToString(sum[:]) == expectedDigest(id), nil
}

func printDigests() error {
	for _, id := range simExhibits {
		tbl, err := experiments.Run(id, experiments.Scale(simScale))
		if err != nil {
			return err
		}
		sum := sha256.Sum256([]byte(tbl.Format()))
		fmt.Printf("%s %s\n", id, hex.EncodeToString(sum[:]))
	}
	return nil
}

// runSim measures sim_paper. An op is one pass that regenerates every
// exhibit; set-up is fig5 regenerated setupsPerRun times (warming the
// code the passes run). Every set-up and pass starts from the same empty
// heap, so its GC cycles and its peak resident set repeat from one to the
// next; the forced collections fall outside the timed and counted spans.
func runSim(p params) (*report, error) {
	rep := newReport()
	var setups []float64
	for i := 0; i < setupsPerRun; i++ {
		debug.FreeOSMemory()
		d, ok, err := regenerate("fig5")
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("fig5 set-up pass does not match its digest")
		}
		setups = append(setups, d.Seconds())
	}
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	var passUs, cpuUs []float64
	var heapPeak, mallocs uint64
	var gcCPU, cpu float64
	each := map[string][]float64{}
	for time.Now().Before(deadline) {
		debug.FreeOSMemory()
		a := readProc()
		var pass time.Duration
		for _, id := range simExhibits {
			rep.res.Attempted++
			d, ok, err := regenerate(id)
			if err != nil {
				return nil, err
			}
			if !ok {
				rep.res.Failed++
				rep.res.Correct = false
			}
			each[id] = append(each[id], d.Seconds())
			pass += d
			heapPeak = max(heapPeak, readProc().heapObj)
		}
		b := readProc()
		passUs = append(passUs, float64(pass)/1e3)
		cpuUs = append(cpuUs, float64(b.cpu-a.cpu)/1e3)
		mallocs += b.mallocs - a.mallocs
		gcCPU += b.gcCPU - a.gcCPU
		cpu += (b.cpu - a.cpu).Seconds()
	}
	maxRSS := readProc().maxRSS
	rep.info["passes"] = len(passUs)
	rep.info["setup_s_each"] = setups
	rep.info["pass_us_each"] = passUs
	if p.trace {
		rep.zeroLayers()
		rep.set("sim.fig5_s", median(each["fig5"]))
		rep.set("sim.fig6b_s", median(each["fig6b"]))
		rep.set("proc.allocs_per_op", float64(mallocs)/float64(len(passUs)))
		rep.set("proc.gc_cpu_frac", ratio(gcCPU, cpu))
		rep.set("proc.heap_peak_mb", float64(heapPeak)/(1<<20))
		// fig6b's scheduler runs thousands of LC tenants; time a round
		// at its per-core saturation point.
		sched, enq, allocs := schedulerRound(2500, 0, workloadOps("read_peak", p.seed, microOps/10))
		rep.set("core.schedule_ns", sched)
		rep.set("core.enqueue_ns", enq)
		rep.set("core.round_allocs", allocs)
		return rep, nil
	}
	rep.set("setup_s", median(setups))
	rep.set("mem_peak_mb", float64(maxRSS)/(1<<20))
	rep.set("cpu_us_per_op", median(cpuUs))
	rep.set("ops_per_s", float64(len(passUs))/(sum(passUs)/1e6))
	rep.set("op_p50_us", median(passUs))
	rep.set("op_p90_us", quantile(passUs, 0.9))
	rep.info["by_name"] = map[string]metric{
		"setup_s":     rep.res.Metrics["setup_s"],
		"fail_frac":   {float64(rep.res.Failed) / float64(rep.res.Attempted), "ratio"},
		"mem_peak_mb": rep.res.Metrics["mem_peak_mb"],
		"sim_s":       {median(passUs) / 1e6, "s"},
	}
	return rep, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
