package experiments

import (
	"strings"
	"testing"
)

// TestFig6aSeriesShape checks the time-series port of Fig. 6a: the series
// must carry per-tenant p95/SLO and token-usage columns, sample repeatedly
// over the run, and convert cleanly to CSV.
func TestFig6aSeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sim experiment")
	}
	s := Fig6aSeries(quick, 2)
	if s.Len() < 5 {
		t.Fatalf("expected at least 5 samples, got %d", s.Len())
	}
	for _, want := range []string{
		"lc0_p95_us", "lc0_slo_us", "lc0_iops",
		"lc1_p95_us", "lc1_slo_us", "lc1_iops",
		"be_iops", "ktokens_per_s", "bucket_ktokens",
		"queue_depth", "busy_channels", "erases_per_s",
	} {
		if _, ok := s.Column(want); !ok {
			t.Errorf("missing column %q (have %v)", want, s.Columns())
		}
	}

	// The SLO column is the constant target in microseconds.
	slo, _ := s.Column("lc0_slo_us")
	for _, v := range slo {
		if v != 2000 {
			t.Fatalf("lc0_slo_us = %v, want constant 2000", v)
		}
	}

	// Once traffic starts, the windowed p95 and the token usage rate must
	// both go positive — these are the SLO-compliance signals.
	p95, _ := s.Column("lc0_p95_us")
	tokens, _ := s.Column("ktokens_per_s")
	var sawP95, sawTokens bool
	for i := range p95 {
		if p95[i] > 0 {
			sawP95 = true
		}
		if tokens[i] > 0 {
			sawTokens = true
		}
	}
	if !sawP95 {
		t.Error("lc0_p95_us never went positive")
	}
	if !sawTokens {
		t.Error("ktokens_per_s never went positive")
	}

	// Table conversion and CSV round-trip.
	tbl := SeriesTable("fig6a-series",
		"Fig. 6a time series: per-tenant p95 vs SLO, IOPS, token usage, queues", s)
	checkGolden(t, "fig6a-series", tbl)
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != s.Len()+1 {
		t.Fatalf("CSV has %d lines, want %d (header + samples)", len(lines), s.Len()+1)
	}
	if !strings.HasPrefix(lines[0], "time_us,lc0_p95_us,lc0_slo_us") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
}
