package conformance

import (
	"fmt"
	"io"
	"math/rand"

	"hypermm"
)

// Options configures one engine run. The zero value plus a Seed is a
// usable smoke configuration.
type Options struct {
	Seed  int64
	Iters int // generated cases; minimum 1

	// StartIter offsets iteration numbering (and therefore per-iteration
	// seeds), letting cmd/soak chain time-bounded chunks while keeping
	// every iteration's case a pure function of (Seed, iteration index).
	StartIter int

	// Oracles to run; nil means the full catalogue.
	Oracles []Oracle

	// ReproDir, when non-empty, receives a minimized JSON repro per
	// failure.
	ReproDir string

	// MaxFailures stops the run early once this many iterations have
	// failed (0 means 4): soak time is better spent shrinking the first
	// few counterexamples than rediscovering the same bug all night.
	MaxFailures int

	// ShrinkChecks bounds oracle evaluations spent minimizing one
	// failure (0 means 300).
	ShrinkChecks int

	// Logf, when non-nil, receives the deterministic progress
	// transcript (one line per call, no trailing newline needed).
	Logf func(format string, args ...any)

	// OnFailure, when non-nil, is called with each minimized failure
	// after its repro (if any) has been persisted — cmd/soak hangs the
	// Chrome-trace export here.
	OnFailure func(*Failure)
}

// Failure is one failing iteration, minimized.
type Failure struct {
	Iter      int
	Oracle    string
	Orig      Case   // as generated
	Case      Case   // after shrinking
	Err       string // the oracle's message on the minimized case
	Steps     int    // accepted shrink steps
	Checks    int    // oracle evaluations spent shrinking
	ReproPath string // "" when no ReproDir was configured
}

// Summary is the engine verdict.
type Summary struct {
	Iters    int // iterations completed
	Checks   int // oracle evaluations in the main loop (excludes shrinking)
	Skipped  int // oracle/case pairs skipped as not applicable
	Retries  int64
	Failures []*Failure
}

// OK reports whether every iteration passed every applicable oracle.
func (s Summary) OK() bool { return len(s.Failures) == 0 }

// Run executes the engine: Iters generated cases, each checked against
// every applicable oracle; failures are shrunk, persisted and reported.
// The whole run — cases, verdicts, transcript — is a pure function of
// Options (given the emulator's determinism).
func Run(opt Options) (Summary, error) {
	if opt.Iters < 1 {
		opt.Iters = 1
	}
	if opt.MaxFailures == 0 {
		opt.MaxFailures = 4
	}
	if opt.ShrinkChecks == 0 {
		opt.ShrinkChecks = 300
	}
	oracles := opt.Oracles
	if oracles == nil {
		oracles = Oracles()
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	retryCounter = 0
	var sum Summary
	for i := opt.StartIter; i < opt.StartIter+opt.Iters; i++ {
		rng := rand.New(rand.NewSource(mix(opt.Seed, i)))
		c := genCase(rng)
		logf("iter %d: case %v", i, c)
		for _, o := range oracles {
			if o.Applies != nil && !o.Applies(c) {
				sum.Skipped++
				continue
			}
			sum.Checks++
			err := o.Check(c)
			if err == nil {
				continue
			}
			logf("iter %d: FAIL %s: %v", i, o.Name, err)
			f := &Failure{Iter: i, Oracle: o.Name, Orig: c}
			f.Case, f.Steps, f.Checks = Shrink(o, c, opt.ShrinkChecks)
			if minErr := o.Check(f.Case); minErr != nil {
				f.Err = minErr.Error()
			} else {
				// A flaky oracle would be a determinism bug in itself;
				// fall back to the original failure message.
				f.Err = err.Error()
			}
			logf("iter %d: shrunk to %v (%d steps, %d checks)", i, f.Case, f.Steps, f.Checks)
			if opt.ReproDir != "" {
				path, err := Save(opt.ReproDir, &Repro{
					Version: ReproVersion, Oracle: o.Name, Error: f.Err, Case: f.Case,
				})
				if err != nil {
					return sum, fmt.Errorf("conformance: persisting repro: %w", err)
				}
				f.ReproPath = path
				logf("iter %d: repro %s", i, path)
			}
			sum.Failures = append(sum.Failures, f)
			if opt.OnFailure != nil {
				opt.OnFailure(f)
			}
		}
		sum.Iters++
		if len(sum.Failures) >= opt.MaxFailures {
			logf("stopping after %d failures", len(sum.Failures))
			break
		}
	}
	sum.Retries = retryCounter
	return sum, nil
}

// mix derives the per-iteration seed from the master seed with a
// splitmix64 step, so neighboring iterations get unrelated streams.
func mix(seed int64, iter int) int64 {
	z := uint64(seed) + (uint64(iter)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// WriteTrace re-runs the first algorithm runnable on the case, clean,
// with event tracing, and writes the Chrome trace-event JSON — the
// artifact cmd/soak attaches next to a failing repro so the schedule
// that produced the failure can be inspected in chrome://tracing.
func WriteTrace(c Case, w io.Writer) error {
	algs := runnable(c.N, c.P)
	if len(algs) == 0 {
		return fmt.Errorf("conformance: no runnable algorithm at n=%d p=%d", c.N, c.P)
	}
	A, B := c.Operands()
	_, tr, err := hypermm.RunTraced(algs[0], c.cleanConfig(), A, B)
	if err != nil {
		return err
	}
	return tr.ChromeJSON(w)
}
