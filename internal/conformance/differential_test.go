package conformance

import (
	"errors"
	"strings"
	"testing"

	"hypermm"
)

// runRecorder plants a run hook that forwards to hypermm.Run and
// records every outcome, so tests can see what the differential oracle
// saw through the same entry point.
type runRecorder struct {
	runs, retried, linkDown int
	ran                     map[hypermm.Algorithm]bool
}

func recordRuns(t *testing.T) *runRecorder {
	t.Helper()
	rec := &runRecorder{ran: map[hypermm.Algorithm]bool{}}
	restore := SetRunHook(func(alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		res, err := hypermm.Run(alg, cfg, A, B)
		rec.runs++
		rec.ran[alg] = true
		if err == nil && res.Comm.Retries > 0 {
			rec.retried++
		}
		if errors.Is(err, hypermm.ErrLinkDown) {
			rec.linkDown++
		}
		return res, err
	})
	t.Cleanup(restore)
	return rec
}

func differential(t *testing.T) Oracle {
	t.Helper()
	o, ok := OracleByName("differential")
	if !ok {
		t.Fatal("differential oracle missing")
	}
	return o
}

func diffCase(n, p int, ports hypermm.PortModel) Case {
	return Case{N: n, P: p, Ports: ports, Ts: 150, Tw: 3, Tc: 0.5,
		Content: ContentRandom, ContentSeed: 11, Scale: 2, PlanKind: PlanClean}
}

func totalOutagePlan(seed uint64, retries int) *hypermm.FaultPlan {
	return &hypermm.FaultPlan{
		Seed:       seed,
		Down:       []hypermm.Window{{Src: -1, Dst: -1, From: 0, To: farFuture}},
		MaxRetries: retries,
	}
}

func TestDifferentialCleanPasses(t *testing.T) {
	for _, ports := range []hypermm.PortModel{hypermm.OnePort, hypermm.MultiPort} {
		rec := recordRuns(t)
		if err := differential(t).Check(diffCase(24, 8, ports)); err != nil {
			t.Fatalf("%v: clean case failed: %v", ports, err)
		}
		if rec.runs == 0 {
			t.Fatalf("%v: no algorithm ran at n=24 p=8", ports)
		}
	}
}

func TestDifferentialCleanCubeReconciles(t *testing.T) {
	// p=64 makes every algorithm (2-D and 3-D) runnable at n=48.
	rec := recordRuns(t)
	if err := differential(t).Check(diffCase(48, 64, hypermm.OnePort)); err != nil {
		t.Fatalf("clean cube case failed: %v", err)
	}
	if got, want := len(rec.ran), len(hypermm.Algorithms); got != want {
		t.Fatalf("ran %d algorithms, want all %d", got, want)
	}
}

func TestDifferentialFaultyRecoversOrFaults(t *testing.T) {
	// A light plan: every algorithm either recovers (and must still be
	// correct) or surfaces a typed fault — never a wrong answer.
	c := diffCase(24, 8, hypermm.OnePort)
	c.PlanKind, c.Plan = PlanLight, &hypermm.FaultPlan{Seed: 9, Drop: 0.08, MaxRetries: 30}
	rec := recordRuns(t)
	if err := differential(t).Check(c); err != nil {
		t.Fatalf("light plan produced a hard failure: %v", err)
	}
	if rec.retried == 0 {
		t.Fatal("8% drop never exercised the retry path")
	}
}

// TestDifferentialTotalOutageLinkDown pins the total-outage rule: with
// every link down from time 0 each runnable algorithm must end in
// ErrLinkDown, and a run that completes or fails any other way is a
// failure of the oracle.
func TestDifferentialTotalOutageLinkDown(t *testing.T) {
	o := differential(t)
	c := diffCase(24, 8, hypermm.OnePort)
	c.PlanKind, c.Plan = PlanHostile, totalOutagePlan(2, 1)
	if !c.totalOutage() {
		t.Fatal("total outage not recognized")
	}
	rec := recordRuns(t)
	if err := o.Check(c); err != nil {
		t.Fatalf("typed faults must not fail the oracle: %v", err)
	}
	if rec.runs == 0 || rec.linkDown != rec.runs {
		t.Fatalf("%d of %d runs ended in ErrLinkDown under a total outage", rec.linkDown, rec.runs)
	}

	// A kernel that ignores the outage must be caught...
	restore := SetRunHook(func(alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		cfg.Faults = nil
		return hypermm.Run(alg, cfg, A, B)
	})
	err := o.Check(c)
	restore()
	if err == nil || !strings.Contains(err.Error(), "completed under a total outage") {
		t.Errorf("run ignoring the outage: err = %v", err)
	}
	// ...and so must one that surfaces the outage as the wrong fault.
	restore = SetRunHook(func(alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		return nil, hypermm.ErrDeadline
	})
	err = o.Check(c)
	restore()
	if err == nil || !strings.Contains(err.Error(), "want ErrLinkDown") {
		t.Errorf("outage surfaced as ErrDeadline: err = %v", err)
	}

	// A single-target outage is hostile but not total: algorithms that
	// never use the dead links may complete.
	partial := c
	partial.Plan = totalOutagePlan(2, 1)
	partial.Plan.Down[0].Dst = 3
	if partial.totalOutage() {
		t.Error("single-target outage classified total")
	}
	if err := o.Check(partial); err != nil {
		t.Errorf("single-target outage: %v", err)
	}
}

// TestSoakSmokeSliceExercisesFaults pins the run-level guarantee of the
// soak-smoke slice (seed 1, 8 iterations): it mixes light, messy and
// hostile plans, some run recovers through retries, and some hostile
// case surfaces ErrLinkDown — so the CI gate exercises both halves of
// the fault machinery, not just clean runs.
func TestSoakSmokeSliceExercisesFaults(t *testing.T) {
	rec := recordRuns(t)
	transcript, sum := engineTranscript(t, Options{Seed: 1, Iters: 8})
	if !sum.OK() {
		t.Fatalf("soak-smoke slice failed: %+v\n%s", sum.Failures[0], transcript)
	}
	for _, kind := range []string{PlanLight, PlanMessy, PlanHostile} {
		if !strings.Contains(transcript, "plan="+kind) {
			t.Errorf("slice has no %s plan:\n%s", kind, transcript)
		}
	}
	if sum.Retries == 0 || rec.retried == 0 {
		t.Errorf("no run recovered through retries (summary %d, runs %d)", sum.Retries, rec.retried)
	}
	if rec.linkDown == 0 {
		t.Error("no hostile case surfaced ErrLinkDown")
	}
}
