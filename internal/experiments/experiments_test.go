package experiments

import (
	"strconv"
	"strings"
	"testing"

	"github.com/reflex-go/reflex/internal/sim"
)

// quick is the test scale: short windows, same structure.
const quick Scale = 0.15

// parseUS reads a microsecond cell.
func parseUS(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad us cell %q: %v", s, err)
	}
	return v
}

// parseK reads a "123K" cell.
func parseK(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "K"), 64)
	if err != nil {
		t.Fatalf("bad K cell %q: %v", s, err)
	}
	return v * 1000
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"a", "bb"}, Notes: "n"}
	tb.Add(1, 2.5)
	tb.Add("long-cell", "y")
	out := tb.Format()
	for _, want := range []string{"== x: T ==", "a", "bb", "long-cell", "2.5", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	if _, ok := tb.Cell("bb", func(r []string) bool { return r[0] == "1" }); !ok {
		t.Error("Cell lookup failed")
	}
	if _, ok := tb.Cell("zz", func(r []string) bool { return true }); ok {
		t.Error("Cell found nonexistent column")
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	// Smoke: every registered experiment runs at tiny scale and produces
	// rows. Heavier shape assertions live in the dedicated tests below.
	skipHeavy := map[string]bool{
		"fig1": true, "fig3a": true, "fig3b": true, "fig3c": true,
		"fig4": true, "fig6a": true, "fig6b": true, "fig6c": true,
		"fig7a": true, "fig7b": true, "fig7c": true, "fig5": true,
		"ext-cache":     true, // fig5-weight; has its own dedicated test
		"ext-failover":  true, // wall-clock; has its own dedicated test
		"ext-sharding":  true, // wall-clock; has its own dedicated test
		"ext-ctrlplane": true, // wall-clock; has its own dedicated test
	}
	// Wall-clock experiments drive real servers, so their tables vary run
	// to run; every other table is seeded simulator output and is pinned.
	wallClock := map[string]bool{
		"ext-failover": true, "ext-sharding": true, "ext-ctrlplane": true, "ext-volume": true,
	}
	for _, id := range IDs() {
		if skipHeavy[id] {
			continue
		}
		tbl, err := Run(id, quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		if !wallClock[id] {
			checkGolden(t, id, tbl)
		}
	}
	if _, err := Run("nope", 1); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := Fig1(quick)
	checkGolden(t, "fig1", tbl)
	// For each ratio, p95 at the lightest load must be far below p95 at
	// the heaviest measured load, and write-heavier mixes must give up at
	// lower IOPS.
	lastIOPS := map[int]float64{}
	firstP95 := map[int]float64{}
	lastP95 := map[int]float64{}
	for _, row := range tbl.Rows {
		ratio, _ := strconv.Atoi(row[0])
		iops := parseK(t, row[2])
		p95 := parseUS(t, row[3])
		if _, ok := firstP95[ratio]; !ok {
			firstP95[ratio] = p95
		}
		lastIOPS[ratio] = iops
		lastP95[ratio] = p95
	}
	for ratio, fp := range firstP95 {
		if lastP95[ratio] < 3*fp {
			t.Errorf("ratio %d%%: p95 did not blow up (%.0f -> %.0f us)", ratio, fp, lastP95[ratio])
		}
	}
	if lastIOPS[50] >= lastIOPS[100]/2 {
		t.Errorf("50%%-read saturation (%.0f) should be far below read-only (%.0f)",
			lastIOPS[50], lastIOPS[100])
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := Table2(quick)
	checkGolden(t, "tab2", tbl)
	if len(tbl.Rows) != 6 {
		t.Fatalf("Table 2 has %d rows, want 6", len(tbl.Rows))
	}
	readAvg := map[string]float64{}
	writeAvg := map[string]float64{}
	for _, row := range tbl.Rows {
		readAvg[row[0]] = parseUS(t, row[1])
		writeAvg[row[0]] = parseUS(t, row[3])
	}
	// The paper's ordering: local < ReFlex-IX < ReFlex-Linux ~< libaio-IX
	// < libaio-Linux < iSCSI for reads.
	order := []string{"Local (SPDK)", "ReFlex (IX Client)", "ReFlex (Linux Client)",
		"Libaio (IX Client)", "Libaio (Linux Client)", "iSCSI"}
	for i := 1; i < len(order); i++ {
		if readAvg[order[i]] <= readAvg[order[i-1]]*0.98 {
			t.Errorf("read ordering violated: %s (%.0f) <= %s (%.0f)",
				order[i], readAvg[order[i]], order[i-1], readAvg[order[i-1]])
		}
	}
	// Headline number: ReFlex adds ~21us to local reads.
	adder := readAvg["ReFlex (IX Client)"] - readAvg["Local (SPDK)"]
	if adder < 14 || adder > 30 {
		t.Errorf("ReFlex-IX adder = %.1fus over local, want ~21us", adder)
	}
	// Writes: local ~11us, ReFlex-IX ~31us.
	if writeAvg["Local (SPDK)"] > 16 {
		t.Errorf("local write avg = %.0fus, want ~11us", writeAvg["Local (SPDK)"])
	}
	if w := writeAvg["ReFlex (IX Client)"]; w < 24 || w > 42 {
		t.Errorf("ReFlex-IX write avg = %.0fus, want ~31us", w)
	}
	// iSCSI read latency is ~2.8x local (the paper's 2.8x claim).
	if ratio := readAvg["iSCSI"] / readAvg["Local (SPDK)"]; ratio < 2.2 || ratio > 3.4 {
		t.Errorf("iSCSI/local read ratio = %.2f, want ~2.7", ratio)
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := Fig5(0.4)
	checkGolden(t, "fig5", tbl)
	get := func(scenario, sched, tenant, col string) float64 {
		cell, ok := tbl.Cell(col, func(r []string) bool {
			return r[0] == scenario && r[1] == sched && r[2] == tenant
		})
		if !ok {
			t.Fatalf("missing row %s/%s/%s", scenario, sched, tenant)
		}
		if strings.HasSuffix(cell, "K") {
			return parseK(t, cell)
		}
		return parseUS(t, cell)
	}

	// Scenario 1, scheduler enabled: both LC tenants meet their SLOs.
	for _, tenant := range []string{"A", "B"} {
		if p95 := get("1", "enabled", tenant, "p95_read_us"); p95 > 550 {
			t.Errorf("scenario 1 enabled: tenant %s p95 = %.0fus, SLO 500us", tenant, p95)
		}
	}
	if iops := get("1", "enabled", "A", "IOPS"); iops < 112_000 {
		t.Errorf("tenant A IOPS = %.0f, want ~120K", iops)
	}
	if iops := get("1", "enabled", "B", "IOPS"); iops < 64_000 {
		t.Errorf("tenant B IOPS = %.0f, want ~70K", iops)
	}
	// Scheduler disabled: massive SLO violation for LC tenants.
	if p95 := get("1", "disabled", "A", "p95_read_us"); p95 < 1500 {
		t.Errorf("scenario 1 disabled: tenant A p95 = %.0fus, want >2ms-ish", p95)
	}
	// BE tenants: C (95% read) far out-runs D (25% read) when enabled.
	cIOPS, dIOPS := get("1", "enabled", "C", "IOPS"), get("1", "enabled", "D", "IOPS")
	if cIOPS < 2.5*dIOPS {
		t.Errorf("C (%.0f) should far exceed D (%.0f)", cIOPS, dIOPS)
	}
	// Scenario 2: B under-uses its SLO; BE tenants gain throughput.
	c2 := get("2", "enabled", "C", "IOPS")
	if c2 <= cIOPS {
		t.Errorf("scenario 2: C IOPS (%.0f) should exceed scenario 1 (%.0f)", c2, cIOPS)
	}
}

func TestFig6aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := Fig6a(quick, 4)
	checkGolden(t, "fig6a", tbl)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var lc1, lc4, be1, be4 float64
	for _, row := range tbl.Rows {
		cores, _ := strconv.Atoi(row[0])
		lc := parseK(t, row[2])
		be := parseK(t, row[3])
		p95 := parseUS(t, row[5])
		if cores == 1 {
			lc1, be1 = lc, be
		}
		if cores == 4 {
			lc4, be4 = lc, be
		}
		if p95 > 2000 {
			t.Errorf("%d cores: LC p95 %.0fus exceeds the 2ms SLO", cores, p95)
		}
	}
	// LC IOPS scale linearly with cores; BE IOPS shrink.
	if lc4 < 3.3*lc1 {
		t.Errorf("LC IOPS not scaling: 1 core %.0f, 4 cores %.0f", lc1, lc4)
	}
	if be4 >= be1 {
		t.Errorf("BE IOPS did not shrink as LC tenants joined: %.0f -> %.0f", be1, be4)
	}
}

func TestFig6bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := Fig6b(quick, []int{500, 2500, 3500})
	checkGolden(t, "fig6b", tbl)
	get := func(cores, tenants int) float64 {
		cell, ok := tbl.Cell("achieved_IOPS", func(r []string) bool {
			return r[0] == strconv.Itoa(cores) && r[1] == strconv.Itoa(tenants)
		})
		if !ok {
			t.Fatalf("missing %d cores / %d tenants", cores, tenants)
		}
		return parseK(t, cell)
	}
	// A single core sustains 2500 tenants near the offered load but falls
	// behind at 3500; more cores recover it.
	if got := get(1, 2500); got < 200_000 {
		t.Errorf("1 core / 2500 tenants = %.0f IOPS, want ~250K", got)
	}
	short1 := get(1, 3500) / 350_000
	short2 := get(2, 3500) / 350_000
	if short1 > 0.92 {
		t.Errorf("1 core / 3500 tenants delivered %.0f%% of offered; expected saturation", short1*100)
	}
	if short2 < short1+0.05 {
		t.Errorf("2 cores should relieve the 3500-tenant bottleneck (%.2f vs %.2f)", short2, short1)
	}
}

func TestFig6cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := Fig6c(quick)
	checkGolden(t, "fig6c", tbl)
	get := func(perConn, conns int) float64 {
		cell, ok := tbl.Cell("achieved_IOPS", func(r []string) bool {
			return r[0] == strconv.Itoa(perConn) && r[1] == strconv.Itoa(conns)
		})
		if !ok {
			t.Fatalf("missing %d/%d", perConn, conns)
		}
		return parseK(t, cell)
	}
	// 100 IOPS/conn: near-linear to 5000 conns, degraded at 10000.
	if got := get(100, 5000); got < 430_000 {
		t.Errorf("5000 conns delivered %.0f, want ~500K", got)
	}
	frac10k := get(100, 10000) / 1_000_000
	if frac10k > 0.85 {
		t.Errorf("10000 conns delivered %.0f%% of offered; expected LLC-pressure degradation",
			frac10k*100)
	}
	// 1000 IOPS/conn peaks below the 850K zero-pressure ceiling.
	if got := get(1000, 850); got < 600_000 || got > 860_000 {
		t.Errorf("850 conns x 1000 IOPS = %.0f, want ~780K", got)
	}
}

func TestFig7bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := Fig7b(quick)
	checkGolden(t, "fig7b", tbl)
	slow := func(algo, backend string) float64 {
		cell, ok := tbl.Cell("slowdown", func(r []string) bool {
			return r[0] == algo && r[1] == backend
		})
		if !ok {
			t.Fatalf("missing %s/%s", algo, backend)
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	check := func(algo string, reflexMax, iscsiMin float64) {
		r := slow(algo, "ReFlex")
		i := slow(algo, "iSCSI")
		if r > reflexMax {
			t.Errorf("%s: ReFlex slowdown %.2fx, want <= %.2fx", algo, r, reflexMax)
		}
		if i < iscsiMin {
			t.Errorf("%s: iSCSI slowdown %.2fx, want >= %.2fx", algo, i, iscsiMin)
		}
		if i <= r {
			t.Errorf("%s: iSCSI (%.2fx) not slower than ReFlex (%.2fx)", algo, i, r)
		}
	}
	// Paper: ReFlex 1-4% slowdown; iSCSI 15-40%.
	check("WCC", 1.15, 1.05)
	check("PR", 1.15, 1.05)
	check("BFS", 1.20, 1.10)
	check("SCC", 1.20, 1.10)
	// Result consistency across backends.
	for _, algo := range []string{"WCC", "PR", "BFS", "SCC"} {
		var vals []string
		for _, row := range tbl.Rows {
			if row[0] == algo {
				vals = append(vals, row[4])
			}
		}
		for _, v := range vals {
			if v != vals[0] {
				t.Errorf("%s: result differs across backends: %v", algo, vals)
			}
		}
	}
}

func TestFig7cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := Fig7c(quick)
	checkGolden(t, "fig7c", tbl)
	slow := func(bench, backend string) float64 {
		cell, ok := tbl.Cell("slowdown", func(r []string) bool {
			return r[0] == bench && r[1] == backend
		})
		if !ok {
			t.Fatalf("missing %s/%s", bench, backend)
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// BL is device-bound: all backends within ~10%.
	if v := slow("BL", "iSCSI"); v > 1.30 {
		t.Errorf("bulkload iSCSI slowdown %.2fx, want near 1x (flash-bound)", v)
	}
	// RR/RwW: ReFlex < 10%, iSCSI > 15%.
	for _, bench := range []string{"RR", "RwW"} {
		if v := slow(bench, "ReFlex"); v > 1.12 {
			t.Errorf("%s ReFlex slowdown %.2fx, want <~1.05x", bench, v)
		}
		if v := slow(bench, "iSCSI"); v < 1.12 {
			t.Errorf("%s iSCSI slowdown %.2fx, want >~1.2x", bench, v)
		}
	}
}

func TestAblationTwoStepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := AblationTwoStep(quick)
	checkGolden(t, "ablation-twostep", tbl)
	get := func(model, offered string) float64 {
		cell, ok := tbl.Cell("achieved_IOPS", func(r []string) bool {
			return r[0] == model && r[1] == offered
		})
		if !ok {
			t.Fatalf("missing %s/%s", model, offered)
		}
		return parseK(t, cell)
	}
	two := get("two-step", "400K")
	blocking := get("blocking", "400K")
	if blocking > two/5 {
		t.Errorf("blocking model (%.0f) should collapse vs two-step (%.0f)", blocking, two)
	}
}

func TestScaleClamp(t *testing.T) {
	var s Scale // zero
	if d := s.dur(100 * sim.Millisecond); d != 100*sim.Millisecond {
		t.Errorf("zero scale should mean 1.0, got %d", d)
	}
	s = 0.001
	if d := s.dur(100 * sim.Millisecond); d != 10*sim.Millisecond {
		t.Errorf("floor not applied: %d", d)
	}
}

func TestExtRightsizingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := ExtRightsizing(quick)
	checkGolden(t, "ext-rightsizing", tbl)
	get := func(phase, col string) string {
		cell, ok := tbl.Cell(col, func(r []string) bool { return r[0] == phase })
		if !ok {
			t.Fatalf("missing phase %s", phase)
		}
		return cell
	}
	if th := get("light", "threads_at_end"); th != "1" {
		t.Errorf("light phase ended with %s threads, want 1", th)
	}
	heavyThreads, _ := strconv.Atoi(get("heavy", "threads_at_end"))
	if heavyThreads < 2 {
		t.Errorf("heavy phase ended with %d threads, want >= 2", heavyThreads)
	}
	if th := get("light-again", "threads_at_end"); th != "1" {
		t.Errorf("scaler did not shrink back: %s threads", th)
	}
	// No phase loses throughput: achieved within 10% of offered.
	for _, phase := range []string{"light", "heavy", "light-again"} {
		offered := parseK(t, get(phase, "offered_IOPS"))
		achieved := parseK(t, get(phase, "achieved_IOPS"))
		if achieved < 0.88*offered {
			t.Errorf("%s: achieved %.0f of %.0f offered", phase, achieved, offered)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// The defining property of Figure 3: measured in weighted tokens/s,
	// every mix and size saturates at (roughly) the same knee.
	tbl := Fig3("deviceA", quick)
	checkGolden(t, "fig3a", tbl)
	lastTokens := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		p95 := parseUS(t, row[3])
		if p95 <= 2000 { // the figure's y-range
			if v > lastTokens[row[0]] {
				lastTokens[row[0]] = v
			}
		}
	}
	var min, max float64
	for wl, v := range lastTokens {
		if v == 0 {
			t.Fatalf("workload %s never reached a knee", wl)
		}
		if min == 0 || v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	// All eight curves collapse within ~1.6x of each other in token space
	// (the raw IOPS knees differ by >10x).
	if max > 1.6*min {
		t.Errorf("token knees spread %0.f..%0.f ktokens/s; cost model did not collapse curves",
			min, max)
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := Fig4(quick)
	checkGolden(t, "fig4", tbl)
	best := map[string]float64{}   // highest achieved IOPS with p95 <= 1ms
	lowLat := map[string]float64{} // p95 at the lightest load
	for _, row := range tbl.Rows {
		sys := row[0]
		achieved := parseK(t, row[2])
		p95 := parseUS(t, row[3])
		if _, ok := lowLat[sys]; !ok {
			lowLat[sys] = p95
		}
		if p95 <= 1000 && achieved > best[sys] {
			best[sys] = achieved
		}
	}
	// §5.3 headline ceilings.
	if b := best["Local-1T"]; b < 700_000 || b > 950_000 {
		t.Errorf("Local-1T ceiling = %.0f, want ~870K", b)
	}
	if b := best["ReFlex-1T"]; b < 680_000 || b > 900_000 {
		t.Errorf("ReFlex-1T ceiling = %.0f, want ~850K", b)
	}
	// 2T matches 1T until the single core saturates and extends beyond it
	// at full scale; at test scale the extra headroom point can be lost to
	// sampling noise, so only require parity.
	if b := best["ReFlex-2T"]; b < 0.93*best["ReFlex-1T"] {
		t.Errorf("ReFlex-2T (%.0f) below ReFlex-1T (%.0f)", b, best["ReFlex-1T"])
	}
	if b := best["Libaio-1T"]; b > 100_000 {
		t.Errorf("Libaio-1T ceiling = %.0f, want ~75K", b)
	}
	// "over 10x more CPU cores to achieve the throughput of ReFlex".
	if best["ReFlex-1T"] < 9*best["Libaio-1T"] {
		t.Errorf("ReFlex/libaio per-core ratio = %.1f, want ~11",
			best["ReFlex-1T"]/best["Libaio-1T"])
	}
	// ReFlex's unloaded latency is within ~25us of local (Table 2's 21us).
	if d := lowLat["ReFlex-1T"] - lowLat["Local-1T"]; d < 5 || d > 35 {
		t.Errorf("ReFlex light-load latency adder = %.0fus, want ~16-21us", d)
	}
}

func TestFig7aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	tbl := Fig7a(quick)
	checkGolden(t, "fig7a", tbl)
	maxMBps := map[string]float64{}
	minP95 := map[string]float64{}
	for _, row := range tbl.Rows {
		sys := row[0]
		mbps, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		p95 := parseUS(t, row[4])
		if mbps > maxMBps[sys] {
			maxMBps[sys] = mbps
		}
		if minP95[sys] == 0 || p95 < minP95[sys] {
			minP95[sys] = p95
		}
	}
	// "ReFlex provides 4x higher throughput than iSCSI and 2x lower tail
	// and average latency."
	if r := maxMBps["ReFlex"] / maxMBps["iSCSI"]; r < 3 {
		t.Errorf("ReFlex/iSCSI throughput = %.1fx, want ~4x+", r)
	}
	if r := minP95["iSCSI"] / minP95["ReFlex"]; r < 1.4 {
		t.Errorf("iSCSI/ReFlex p95 = %.1fx, want ~2x", r)
	}
	// Local tops everything; ReFlex is NIC-bound below it.
	if maxMBps["Local"] <= maxMBps["ReFlex"] {
		t.Errorf("local (%.0f) not above NIC-bound ReFlex (%.0f)",
			maxMBps["Local"], maxMBps["ReFlex"])
	}
	// ReFlex saturates the 10GbE link (~1.1 GB/s).
	if maxMBps["ReFlex"] < 900 {
		t.Errorf("ReFlex peak = %.0f MB/s, want ~1100 (10GbE)", maxMBps["ReFlex"])
	}
}
