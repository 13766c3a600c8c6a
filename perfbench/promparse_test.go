package main

import (
	"math"
	"testing"
	"time"

	"hypermm"
	"hypermm/internal/server"
)

// render produces the exposition hmmd serves, from the server's own
// metrics registry.
func render(m *server.Metrics, hits, misses int64) scrape {
	s, err := parseMetrics(m.Render(hits, misses, 1, hypermm.PoolStats{Hits: hits}, nil, nil))
	if err != nil {
		panic(err)
	}
	return s
}

func TestStageDeltasFromServerMetrics(t *testing.T) {
	m := server.NewMetrics()
	m.StageObserve("plan", 5*time.Millisecond)
	m.JobError("verify")
	before := render(m, 3, 1)

	m.StageObserve("plan", 2*time.Millisecond)
	m.StageObserve("plan", 4*time.Millisecond)
	m.StageObserve("run", 10*time.Millisecond)
	m.JobError("verify")
	m.JobError("deadline")
	m.Reject()
	after := render(m, 7, 1)

	mean, n := stageMeanMs(before, after, "plan")
	if n != 2 || math.Abs(mean-3) > 1e-9 {
		t.Errorf("plan stage delta = %v ms over %v samples, want 3 ms over 2 (the pre-window sample excluded)", mean, n)
	}
	if mean, n := stageMeanMs(before, after, "run"); n != 1 || math.Abs(mean-10) > 1e-9 {
		t.Errorf("run stage delta = %v ms over %v, want 10 over 1", mean, n)
	}
	if mean, n := stageMeanMs(before, after, "queue"); mean != 0 || n != 0 {
		t.Errorf("an unobserved stage reads %v over %v, want 0", mean, n)
	}
	if got := sumDelta(before, after, "hmmd_job_errors_total"); got != 2 {
		t.Errorf("job error delta over all kinds = %v, want 2", got)
	}
	if got := delta(before, after, "hmmd_rejects_total"); got != 1 {
		t.Errorf("rejects delta = %v, want 1", got)
	}
	if got := delta(before, after, "hmmd_plan_cache_hits_total"); got != 4 {
		t.Errorf("plan cache hits delta = %v, want 4", got)
	}
}

func TestParseMetricsRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{"hmmd_rejects_total\n", "hmmd_rejects_total twelve\n"} {
		if _, err := parseMetrics(text); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", text)
		}
	}
	s, err := parseMetrics("# HELP x y\n\nx{a=\"b c\"} 2.5\n")
	if err != nil || s[`x{a="b c"}`] != 2.5 {
		t.Errorf("parseMetrics with a spaced label value = %v, %v", s, err)
	}
}
