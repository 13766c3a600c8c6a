package hypermm

import (
	"errors"
	"strings"
	"testing"
)

func TestRunAllAlgorithms(t *testing.T) {
	// Every algorithm, on a machine size where it is runnable, must
	// reproduce the serial product through the public API.
	cases := []struct {
		alg  Algorithm
		p, n int
	}{
		{Simple, 16, 16}, {Cannon, 16, 16}, {HJE, 16, 16},
		{Berntsen, 8, 16}, {DNS, 8, 16}, {TwoDiag, 16, 16},
		{ThreeDiag, 8, 16}, {AllTrans, 8, 16}, {ThreeAll, 8, 16},
	}
	for _, pm := range []PortModel{OnePort, MultiPort} {
		for _, c := range cases {
			A := RandomMatrix(c.n, c.n, 1)
			B := RandomMatrix(c.n, c.n, 2)
			res, err := Run(c.alg, Config{P: c.p, Ports: pm, Ts: 100, Tw: 2, Tc: 0.5}, A, B)
			if err != nil {
				t.Fatalf("%v p=%d: %v", c.alg, c.p, err)
			}
			if err := Verify(A, B, res.C, 1e-9); err != nil {
				t.Errorf("%v %v: %v", c.alg, pm, err)
			}
			if res.Elapsed <= 0 || res.Comm.Msgs <= 0 || res.Comm.Flops <= 0 {
				t.Errorf("%v: implausible stats %+v", c.alg, res.Comm)
			}
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	A := RandomMatrix(8, 8, 1)
	if _, err := Run(Cannon, Config{P: 12}, A, A); err == nil {
		t.Error("accepted non-power-of-two P")
	}
	if _, err := Run(Cannon, Config{P: 0}, A, A); err == nil {
		t.Error("accepted P=0")
	}
	if _, err := Run(Cannon, Config{P: 4, Ts: -1}, A, A); err == nil {
		t.Error("accepted negative Ts")
	}
	if _, err := Run(ThreeAll, Config{P: 16, Ts: 1}, A, A); err == nil {
		t.Error("accepted non-cube P for 3D All")
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range Algorithms {
		got, err := ParseAlgorithm(a.Name())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.Name(), got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("accepted bogus algorithm name")
	}
}

func TestParsePortModelRoundTrip(t *testing.T) {
	for _, pm := range []PortModel{OnePort, MultiPort} {
		got, err := ParsePortModel(pm.String())
		if err != nil || got != pm {
			t.Errorf("ParsePortModel(%q) = %v, %v", pm.String(), got, err)
		}
	}
	for _, s := range []string{"one", "oneport", "multi", "multiport"} {
		if _, err := ParsePortModel(s); err != nil {
			t.Errorf("ParsePortModel(%q): %v", s, err)
		}
	}
	if _, err := ParsePortModel("zero"); err == nil {
		t.Error("accepted bogus port model name")
	}
}

func TestMatrixHelpers(t *testing.T) {
	a := RandomMatrix(4, 4, 9)
	i := IdentityMatrix(4)
	if MaxAbsDiff(MatMul(a, i), a) != 0 {
		t.Error("A*I != A")
	}
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("Set/At broken")
	}
	if !AlmostEqual(a, a, 0) {
		t.Error("AlmostEqual self")
	}
}

func TestVerifyFailsOnWrongResult(t *testing.T) {
	A := RandomMatrix(4, 4, 1)
	B := RandomMatrix(4, 4, 2)
	bad := RandomMatrix(4, 4, 3)
	if err := Verify(A, B, bad, 1e-9); err == nil {
		t.Error("Verify accepted a wrong product")
	}
	if err := Verify(A, B, NewMatrix(3, 3), 1e-9); err == nil {
		t.Error("Verify accepted a wrong shape")
	}
}

func TestMeasuredOverheadMatchesAnalytic(t *testing.T) {
	// Simple is phase-synchronous: measured == analytic exactly.
	a, b, err := MeasuredOverhead(Simple, 16, 32, OnePort)
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB, ok := Overhead(Simple, 32, 16, OnePort)
	if !ok || a != wantA || b != wantB {
		t.Errorf("measured (%g,%g) vs analytic (%g,%g)", a, b, wantA, wantB)
	}
}

func TestCostAPISanity(t *testing.T) {
	if !Applicable(ThreeAll, 100, 512) || Applicable(ThreeAll, 16, 512) {
		t.Error("Applicable wrong")
	}
	tm, ok := CommTime(ThreeAll, 256, 64, 150, 3, OnePort)
	if !ok || tm <= 0 {
		t.Error("CommTime wrong")
	}
	tt, ok := TotalTime(ThreeAll, 256, 64, 150, 3, 0.5, OnePort)
	if !ok || tt <= tm {
		t.Error("TotalTime must exceed CommTime")
	}
	sp, ok := Space(Cannon, 256, 64)
	if !ok || sp != 3*256*256 {
		t.Errorf("Space = %g", sp)
	}
}

func TestBestAlgorithm(t *testing.T) {
	// Where 3D All applies it must be selected (one-port, p >= 8).
	if alg, ok := BestAlgorithm(1024, 512, 150, 3, OnePort); !ok || alg != ThreeAll {
		t.Errorf("best at (1024,512) = %v, want 3D All", alg)
	}
	// Beyond n^2 only 3DD applies.
	if alg, ok := BestAlgorithm(16, 4096, 150, 3, OnePort); !ok || alg != ThreeDiag {
		t.Errorf("best at (16,4096) = %v, want 3DD", alg)
	}
	// Beyond n^3 nothing applies.
	if _, ok := BestAlgorithm(4, 4096, 150, 3, OnePort); ok {
		t.Error("found an algorithm beyond p = n^3")
	}
}

func TestRegionMapAPI(t *testing.T) {
	s := RegionMap(OnePort, 150, 3, 5, 13, 17, 3, 18, 16)
	if !strings.Contains(s, "legend:") || !strings.Contains(s, "A=3D All") {
		t.Error("region map rendering incomplete")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(64)
	if cfg.P != 64 || cfg.Ts != 150 || cfg.Tw != 3 || cfg.Ports != OnePort {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
}

func TestPortModelStrings(t *testing.T) {
	if OnePort.String() != "one-port" || MultiPort.String() != "multi-port" {
		t.Error("port model names wrong")
	}
}

func TestRunFoxViaFacade(t *testing.T) {
	A := RandomMatrix(16, 16, 1)
	B := RandomMatrix(16, 16, 2)
	res, err := Run(Fox, Config{P: 16, Ports: OnePort, Ts: 10, Tw: 1, Tc: 0.1}, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(A, B, res.C, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestRunThreeAllGridFacade(t *testing.T) {
	A := RandomMatrix(16, 16, 1)
	B := RandomMatrix(16, 16, 2)
	// p = 128 > n^1.5 = 64: beyond the cube algorithm's limit.
	res, err := RunThreeAllGrid(Config{P: 128, Ports: OnePort, Ts: 10, Tw: 1, Tc: 0.1}, A, B, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(A, B, res.C, 1e-9); err != nil {
		t.Error(err)
	}
	a, b, ok := OverheadThreeAllGrid(16, 128, 2, OnePort)
	if !ok || a <= 0 || b <= 0 {
		t.Errorf("grid overhead = (%g,%g,%v)", a, b, ok)
	}
	if qy, ok := BestGridQy(1024, 512, 150, 3, OnePort); !ok || qy <= 0 {
		t.Errorf("BestGridQy = (%g,%v)", qy, ok)
	}
}

func TestRunTraced(t *testing.T) {
	A := RandomMatrix(16, 16, 1)
	B := RandomMatrix(16, 16, 2)
	cfg := Config{P: 8, Ports: OnePort, Ts: 10, Tw: 1, Tc: 0.1}
	res, tr, err := RunTraced(ThreeAll, cfg, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(A, B, res.C, 1e-9); err != nil {
		t.Error(err)
	}
	if tr.Events() == 0 {
		t.Error("no events recorded")
	}
	if g := tr.Gantt(60); !strings.Contains(g, "node") {
		t.Error("gantt rendering empty")
	}
	if s := tr.Summary(); !strings.Contains(s, "overall:") {
		t.Error("summary empty")
	}
	// Tracing must not perturb the clock.
	plain, err := Run(ThreeAll, cfg, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Elapsed != res.Elapsed {
		t.Errorf("traced elapsed %g != plain %g", res.Elapsed, plain.Elapsed)
	}
}

func TestCrossoverPFacade(t *testing.T) {
	p, ok := CrossoverP(Cannon, ThreeDiag, 512, 20, 3, OnePort, 8, 1<<17)
	if !ok || p <= 8 {
		t.Errorf("crossover = (%g,%v)", p, ok)
	}
}

func TestRunDNSCannonFacade(t *testing.T) {
	A := RandomMatrix(32, 32, 1)
	B := RandomMatrix(32, 32, 2)
	res, err := RunDNSCannon(Config{P: 32, Ports: OnePort, Ts: 150, Tw: 3, Tc: 0}, A, B, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(A, B, res.C, 1e-9); err != nil {
		t.Error(err)
	}
	if a, b, ok := OverheadDNSCannon(32, 32, 8, OnePort); !ok || a <= 0 || b <= 0 {
		t.Errorf("OverheadDNSCannon = (%g,%g,%v)", a, b, ok)
	}
}

func TestRunThreeDiagCannonFacade(t *testing.T) {
	A := RandomMatrix(32, 32, 1)
	B := RandomMatrix(32, 32, 2)
	res, err := RunThreeDiagCannon(Config{P: 32, Ports: OnePort, Ts: 150, Tw: 3, Tc: 0}, A, B, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(A, B, res.C, 1e-9); err != nil {
		t.Error(err)
	}
}

// TestVerificationCatchesCorruptedTransport: failure injection — if the
// network flips values in flight, the end-to-end Verify must fail. This
// proves the correctness checks in this repository are sensitive to
// transport-level corruption rather than vacuously passing.
func TestVerificationCatchesCorruptedTransport(t *testing.T) {
	A := RandomMatrix(16, 16, 1)
	B := RandomMatrix(16, 16, 2)
	m, err := newMachine(Config{P: 8, Ports: OnePort, Ts: 1, Tw: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Cfg.Corrupt = func(src, dst int, tag uint64, data []float64) {
		if len(data) > 0 {
			data[0] += 0.5
		}
	}
	c, _, err := ThreeAll.runner()(m, A.internal(), B.internal())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(A, B, fromInternal(c), 1e-6); err == nil {
		t.Fatal("verification passed despite corrupted transport")
	}
}

func TestRunRepeatedSquaringFacade(t *testing.T) {
	A := RandomMatrix(16, 16, 9)
	for i := range A.Data {
		A.Data[i] *= 0.2
	}
	res, err := RunRepeatedSquaring(Config{P: 8, Ports: OnePort, Ts: 10, Tw: 1, Tc: 0}, A, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := MatMul(MatMul(A, A), MatMul(A, A)) // A^4
	if MaxAbsDiff(res.C, want) > 1e-8 {
		t.Error("repeated squaring wrong")
	}
}

func TestRunCannonTorusFacade(t *testing.T) {
	// 9 processors: impossible on a hypercube, natural on a torus.
	A := RandomMatrix(9, 9, 1)
	B := RandomMatrix(9, 9, 2)
	res, err := RunCannonTorus(Config{P: 9, Ports: OnePort, Ts: 10, Tw: 1, Tc: 0}, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(A, B, res.C, 1e-9); err != nil {
		t.Error(err)
	}
	if _, err := RunCannonTorus(Config{P: -1}, A, B); err == nil {
		t.Error("accepted negative P")
	}
}

func TestRunCannonTorusUnderFaults(t *testing.T) {
	// The torus facade must honor fault plans and deadlines like Run.
	A := RandomMatrix(9, 9, 1)
	B := RandomMatrix(9, 9, 2)
	cfg := Config{P: 9, Ports: OnePort, Ts: 10, Tw: 1,
		Faults: &FaultPlan{Seed: 6, Drop: 0.2, MaxRetries: 30}}
	res, err := RunCannonTorus(cfg, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(A, B, res.C, 1e-9); err != nil {
		t.Error(err)
	}
	if res.Comm.Retries == 0 {
		t.Error("torus run under 20% drop never retried")
	}
	cfg.Faults = &FaultPlan{Seed: 6, Down: []Window{{Src: -1, Dst: -1, From: 0, To: Forever}}, MaxRetries: 1}
	if _, err := RunCannonTorus(cfg, A, B); !errors.Is(err, ErrLinkDown) {
		t.Errorf("torus outage: err = %v, want ErrLinkDown", err)
	}
	if _, err := RunCannonTorus(Config{P: 9, Deadline: -1}, A, B); err == nil {
		t.Error("accepted negative deadline")
	}
}

func TestAligned(t *testing.T) {
	if !Aligned(ThreeAll) || !Aligned(ThreeDiag) || !Aligned(Cannon) {
		t.Error("aligned algorithms misreported")
	}
	if Aligned(Berntsen) || Aligned(AllTrans) || Aligned(TwoDiag) {
		t.Error("misaligned algorithms misreported")
	}
}

func TestCollectiveAPIBasics(t *testing.T) {
	for _, c := range Collectives {
		if c.String() == "" {
			t.Errorf("collective %d has no name", int(c))
		}
	}
	if _, _, err := MeasuredCollective(AllToAllBcast, 3, 8, OnePort); err == nil {
		t.Error("accepted non-power-of-two N")
	}
	if _, _, err := MeasuredCollective(AllToAllBcast, 4, 0, OnePort); err == nil {
		t.Error("accepted zero M")
	}
	a, b, err := MeasuredCollective(AllToOneReduce, 4, 8, MultiPort)
	if err != nil || a <= 0 || b <= 0 {
		t.Errorf("measured reduce = (%g,%g,%v)", a, b, err)
	}
}

func TestEfficiencyFacade(t *testing.T) {
	e, ok := Efficiency(ThreeAll, 256, 64, 150, 3, 0.5, OnePort)
	if !ok || e <= 0 || e > 1 {
		t.Errorf("Efficiency = (%g,%v)", e, ok)
	}
}

func TestExtensionRunnersErrorPaths(t *testing.T) {
	A := RandomMatrix(8, 8, 1)
	// Bad machine config propagates.
	if _, err := RunThreeAllGrid(Config{P: 3}, A, A, 1); err == nil {
		t.Error("grid accepted bad P")
	}
	if _, err := RunDNSCannon(Config{P: 3}, A, A, 1); err == nil {
		t.Error("dnscannon accepted bad P")
	}
	if _, err := RunThreeDiagCannon(Config{P: 3}, A, A, 1); err == nil {
		t.Error("3ddcannon accepted bad P")
	}
	if _, err := RunRepeatedSquaring(Config{P: 3}, A, 1); err == nil {
		t.Error("repeated squaring accepted bad P")
	}
	// Bad algorithm shape propagates.
	if _, err := RunThreeAllGrid(Config{P: 16, Ts: 1}, A, A, 2); err == nil {
		t.Error("grid accepted 16/2 non-square")
	}
	if _, err := RunDNSCannon(Config{P: 16, Ts: 1}, A, A, 5); err == nil {
		t.Error("dnscannon accepted s=5")
	}
	if _, err := RunThreeDiagCannon(Config{P: 16, Ts: 1}, A, A, 5); err == nil {
		t.Error("3ddcannon accepted s=5")
	}
	if _, err := RunRepeatedSquaring(Config{P: 8, Ts: 1}, A, -1); err == nil {
		t.Error("repeated squaring accepted negative rounds")
	}
}

func TestMeasuredCollectiveAllKinds(t *testing.T) {
	for _, c := range Collectives {
		for _, pm := range []PortModel{OnePort, MultiPort} {
			a, b, err := MeasuredCollective(c, 8, 24, pm)
			if err != nil || a <= 0 || b <= 0 {
				t.Errorf("%v %v: (%g,%g,%v)", c, pm, a, b, err)
			}
		}
	}
}

func TestMatrixInternalPanicsOnCorruptShape(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: make([]float64, 3)}
	defer func() {
		if recover() == nil {
			t.Error("corrupt Matrix shape not caught")
		}
	}()
	m.At(0, 0)
}

// TestRunnableMatchesRunners: Runnable's acceptance must never lie —
// every combination it accepts runs. Rejection may be conservative, but
// the shapes below must be rejected for the reason named.
func TestRunnableMatchesRunners(t *testing.T) {
	A := RandomMatrix(24, 24, 1)
	B := RandomMatrix(24, 24, 2)
	for _, p := range []int{4, 8, 16, 64} {
		for _, alg := range Algorithms {
			if !Runnable(alg, 24, p) {
				continue
			}
			if _, err := Run(alg, Config{P: p, Ports: OnePort, Ts: 1, Tw: 1}, A, B); err != nil {
				t.Errorf("Runnable(%v, 24, %d) said yes but Run failed: %v", alg, p, err)
			}
		}
	}
	if Runnable(Cannon, 24, 3) {
		t.Error("accepted non-power-of-two p")
	}
	if Runnable(Cannon, 25, 16) {
		t.Error("accepted n not divisible by sqrt(p)")
	}
	if Runnable(ThreeAll, 24, 64) {
		t.Error("accepted n=24 for 3dall at p=64 (needs 16 | n)")
	}
	// HJE slices blocks into log sqrt(p) strips: n=32, p=64 gives block
	// edge 4, not divisible by 3.
	if Runnable(HJE, 32, 64) {
		t.Error("accepted HJE block edge not divisible by log sqrt(p)")
	}
	if !Runnable(HJE, 48, 64) {
		t.Error("rejected HJE at n=48 p=64")
	}
}

// TestDifferentialAllAlgorithms is the differential golden test: every
// algorithm, on every shape its grid embedding admits, on both port
// models, must reproduce the serial product. The shape lists mirror the
// runners' preconditions (square mesh, cube grid, HJE's log sqrt(p)
// strip slicing), so a skip can never hide a regression — an entry that
// stops running is a test failure, not a skip.
func TestDifferentialAllAlgorithms(t *testing.T) {
	meshShapes := [][2]int{{4, 16}, {4, 24}, {16, 16}, {16, 24}, {64, 48}}
	shapes := map[Algorithm][][2]int{ // {p, n}
		Simple:  meshShapes,
		Cannon:  meshShapes,
		TwoDiag: meshShapes,
		Fox:     meshShapes,
		// HJE at p=64 also needs log sqrt(p)=3 to divide n/8.
		HJE:       {{4, 16}, {4, 24}, {16, 16}, {16, 24}, {64, 24}, {64, 48}},
		DNS:       {{8, 16}, {8, 24}, {64, 16}, {64, 48}},
		ThreeDiag: {{8, 16}, {8, 24}, {64, 16}, {64, 48}},
		Berntsen:  {{8, 16}, {8, 24}, {64, 16}, {64, 48}},
		AllTrans:  {{8, 16}, {8, 24}, {64, 16}, {64, 48}},
		ThreeAll:  {{8, 16}, {8, 24}, {64, 16}, {64, 48}},
	}
	for _, alg := range Algorithms {
		if len(shapes[alg]) == 0 {
			t.Errorf("%v: no differential shapes", alg)
		}
	}
	for _, pm := range []PortModel{OnePort, MultiPort} {
		for alg, list := range shapes {
			for _, pn := range list {
				p, n := pn[0], pn[1]
				A := RandomMatrix(n, n, int64(97*p+n))
				B := RandomMatrix(n, n, int64(89*p+n))
				res, err := Run(alg, Config{P: p, Ports: pm, Ts: 150, Tw: 3, Tc: 0.5}, A, B)
				if err != nil {
					t.Errorf("%v %v p=%d n=%d: %v", alg, pm, p, n, err)
					continue
				}
				if err := Verify(A, B, res.C, 1e-9); err != nil {
					t.Errorf("%v %v p=%d n=%d: %v", alg, pm, p, n, err)
				}
			}
		}
	}
}

// TestRunDeterministicUnderFaults is the determinism regression: the
// same (algorithm, config, seed, fault plan) must reproduce identical
// simulated clocks and communication counters, run after run — fault
// decisions may never leak goroutine scheduling into the clock.
func TestRunDeterministicUnderFaults(t *testing.T) {
	A := RandomMatrix(24, 24, 1)
	B := RandomMatrix(24, 24, 2)
	plans := []*FaultPlan{
		nil,
		{Seed: 13, Drop: 0.15, MaxRetries: 30},
		{Seed: 13, Drop: 0.1, Dup: 0.1, DelayProb: 0.2, DelayTime: 33, MaxRetries: 30},
	}
	for _, alg := range []Algorithm{Cannon, ThreeAll} {
		for pi, plan := range plans {
			cfg := Config{P: 16, Ports: OnePort, Ts: 150, Tw: 3, Tc: 0.5, Faults: plan}
			if alg == ThreeAll {
				cfg.P = 8
			}
			var elapsed float64
			var comm CommStats
			for run := 0; run < 3; run++ {
				res, err := Run(alg, cfg, A, B)
				if err != nil {
					t.Fatalf("%v plan %d run %d: %v", alg, pi, run, err)
				}
				if run == 0 {
					elapsed, comm = res.Elapsed, res.Comm
				} else if res.Elapsed != elapsed || res.Comm != comm {
					t.Fatalf("%v plan %d run %d diverged: (%g, %+v) vs (%g, %+v)",
						alg, pi, run, res.Elapsed, res.Comm, elapsed, comm)
				}
			}
			if pi > 0 && comm.Retries == 0 {
				t.Errorf("%v plan %d: fault plan never exercised the retry path", alg, pi)
			}
		}
	}
}

func TestRunThreeDiagTransFacade(t *testing.T) {
	A := RandomMatrix(16, 16, 1)
	B := RandomMatrix(16, 16, 2)
	res, err := RunThreeDiagTrans(Config{P: 8, Ports: OnePort, Ts: 10, Tw: 1, Tc: 0}, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(A, B, res.C, 1e-9); err != nil {
		t.Error(err)
	}
}
