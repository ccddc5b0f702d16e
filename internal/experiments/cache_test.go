package experiments

import (
	"testing"
)

// TestExtCacheShape runs ext-cache at test scale and checks structure
// plus the directional claims that survive short windows: the cache
// earns a real hit ratio on the Zipf mix, best-effort throughput does
// not get worse for it, and stream segregation does not increase write
// amplification. The strict quantitative gates (>=1.5x BE, >=50% hits,
// seg WA strictly below mixed) run at full scale in cmd/reflex-bench.
func TestExtCacheShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	res, tbl := CacheBench(quick)
	if tbl.ID != "ext-cache" {
		t.Fatalf("table ID = %q", tbl.ID)
	}
	checkGolden(t, "ext-cache", tbl)
	// 3 tenants x 2 cache configs + 2 placement configs.
	if got, want := len(tbl.Rows), 3*2+2; got != want {
		t.Fatalf("rows = %d, want %d:\n%s", got, want, tbl.Format())
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("row width %d != %d columns", len(row), len(tbl.Columns))
		}
	}
	if res.BEIOPSOff <= 0 || res.BEIOPSOn <= 0 {
		t.Fatalf("best-effort tenants completed no work: %+v", res)
	}
	if res.HitRatio < 0.3 {
		t.Errorf("hit ratio %.2f: Zipf(%.1f) working set should hit far more", res.HitRatio, cacheZipfSkew)
	}
	if sp := res.BESpeedup(); sp < 1.0 {
		t.Errorf("cache made best-effort slower: %.2fx (off %.0f, on %.0f)",
			sp, res.BEIOPSOff, res.BEIOPSOn)
	}
	if res.WriteAmpMixed < 1 || res.WriteAmpSegregated < 1 {
		t.Errorf("write amp below 1 is impossible: mixed %.3f seg %.3f",
			res.WriteAmpMixed, res.WriteAmpSegregated)
	}
	if res.WriteAmpSegregated > res.WriteAmpMixed {
		t.Errorf("segregated WA %.3f > mixed %.3f", res.WriteAmpSegregated, res.WriteAmpMixed)
	}
}
