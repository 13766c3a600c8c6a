package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one parse of a Prometheus text exposition: sample value by
// series, where a series is the metric name plus its label block
// exactly as exposed (`hmmd_stage_seconds_sum{stage="plan"}`).
type scrape map[string]float64

// parseMetrics reads the text exposition format: comment lines are
// skipped and every other line is `series value`.
func parseMetrics(text string) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, l)
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[strings.TrimSpace(l[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after − before for one series (absent counts as 0).
func delta(before, after scrape, series string) float64 {
	return after[series] - before[series]
}

// sumDelta totals after − before over every series of a family, label
// values included: `hmmd_job_errors_total` sums each kind.
func sumDelta(before, after scrape, family string) float64 {
	total := 0.0
	for k, v := range after {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v - before[k]
		}
	}
	return total
}

// stageMeanMs is the mean duration in milliseconds of the samples one
// hmmd_stage_seconds stage recorded between two scrapes, with the
// sample count; 0 when the stage recorded nothing.
func stageMeanMs(before, after scrape, stage string) (float64, float64) {
	sum := delta(before, after, fmt.Sprintf("hmmd_stage_seconds_sum{stage=%q}", stage))
	n := delta(before, after, fmt.Sprintf("hmmd_stage_seconds_count{stage=%q}", stage))
	if n <= 0 {
		return 0, 0
	}
	return sum / n * 1e3, n
}
