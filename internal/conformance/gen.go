// Package conformance is a seeded property-based conformance and soak
// engine for the emulator, the algorithm suite and the cost model. It
// generates random but reproducible scenarios (matrix shapes and
// contents, machine configurations, fault plans), checks them against a
// library of metamorphic oracles (oracles.go), shrinks any failing case
// to a minimal counterexample (shrink.go) and persists the result as a
// replayable JSON repro under testdata/repros/ (repro.go). cmd/soak is
// the CLI driver; Run is the library entry point.
//
// Everything is a pure function of the master seed: the same seed
// always generates the same cases, the same verdicts and — because the
// emulator's clocks and fault decisions are themselves deterministic —
// the same failure transcripts, byte for byte.
package conformance

import (
	"fmt"
	"math/rand"
	"strings"

	"hypermm"
)

// ContentKind selects how operand entries are generated. The shrinker
// simplifies along random -> smallint -> zeroone: a counterexample that
// still fails with 0/1 entries is far easier to stare at than one full
// of 16-digit fractions.
type ContentKind string

const (
	// ContentRandom draws entries uniform in [-1, 1).
	ContentRandom ContentKind = "random"
	// ContentSmallInt draws entries from the integers {-2..2}.
	ContentSmallInt ContentKind = "smallint"
	// ContentZeroOne draws entries from {0, 1}.
	ContentZeroOne ContentKind = "zeroone"
)

// Plan kinds, recorded on the case so oracles can tell a recoverable
// plan (the retry protocol must hide it) from a hostile one (a typed
// fault is the expected outcome).
const (
	PlanClean   = "clean"
	PlanLight   = "light"
	PlanMessy   = "messy"
	PlanHostile = "hostile"
)

// Case is one generated conformance scenario: a square n x n problem on
// a p-node machine with the given cost parameters, operand content
// recipe, scaling constant (for the linearity oracle) and fault plan.
// Cases marshal to the repro JSON format as-is.
type Case struct {
	N     int               `json:"n"`
	P     int               `json:"p"`
	Ports hypermm.PortModel `json:"ports"` // 0 one-port, 1 multi-port
	Ts    float64           `json:"ts"`
	Tw    float64           `json:"tw"`
	Tc    float64           `json:"tc"`

	ContentSeed int64       `json:"content_seed"`
	Content     ContentKind `json:"content"`
	Scale       float64     `json:"scale"`

	PlanKind string             `json:"plan_kind"`
	Plan     *hypermm.FaultPlan `json:"plan,omitempty"`
}

// farFuture stands in for hypermm.Forever in generated outage windows:
// JSON cannot encode +Inf, and no simulated clock in a bounded run gets
// anywhere near it.
const farFuture = 1e18

// String renders the case on one line, deterministically.
func (c Case) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d p=%d %v ts=%g tw=%g tc=%g content=%s seed=%d scale=%g plan=%s",
		c.N, c.P, c.Ports, c.Ts, c.Tw, c.Tc, c.Content, c.ContentSeed, c.Scale, c.PlanKind)
	if p := c.Plan; p != nil && !p.Empty() {
		fmt.Fprintf(&sb, "{seed=%d drop=%g dup=%g delay=%g/%g down=%d retries=%d}",
			p.Seed, p.Drop, p.Dup, p.DelayProb, p.DelayTime, len(p.Down), p.MaxRetries)
	}
	return sb.String()
}

// Operands materializes the case's operand matrices. Deterministic in
// (N, ContentSeed, Content).
func (c Case) Operands() (A, B *hypermm.Matrix) {
	switch c.Content {
	case ContentSmallInt:
		return intMatrix(c.N, c.ContentSeed*31+1, 5, -2), intMatrix(c.N, c.ContentSeed*31+2, 5, -2)
	case ContentZeroOne:
		return intMatrix(c.N, c.ContentSeed*31+1, 2, 0), intMatrix(c.N, c.ContentSeed*31+2, 2, 0)
	default:
		return hypermm.RandomMatrix(c.N, c.N, c.ContentSeed*31+1),
			hypermm.RandomMatrix(c.N, c.N, c.ContentSeed*31+2)
	}
}

func intMatrix(n int, seed int64, span, lo int) *hypermm.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := hypermm.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = float64(rng.Intn(span) + lo)
	}
	return m
}

// cleanConfig is the case's machine configuration with no fault plan —
// what the metamorphic oracles run under.
func (c Case) cleanConfig() hypermm.Config {
	return hypermm.Config{P: c.P, Ports: c.Ports, Ts: c.Ts, Tw: c.Tw, Tc: c.Tc}
}

// faultConfig is the case's machine configuration with its plan active.
func (c Case) faultConfig() hypermm.Config {
	cfg := c.cleanConfig()
	cfg.Faults = c.Plan
	return cfg
}

// Recoverable reports whether the case's plan is one the retry protocol
// is guaranteed to hide: non-empty, no outage windows, a bounded drop
// rate and a generous retry budget.
func (c Case) Recoverable() bool {
	p := c.Plan
	return p != nil && !p.Empty() && len(p.Down) == 0 && p.Drop <= 0.2 && p.MaxRetries >= 20
}

// totalOutage reports whether the case's plan takes every link down
// (Src = Dst = -1) from time 0 and never brings it back: no transfer
// can ever succeed, so any run that communicates must exhaust its retry
// budget.
func (c Case) totalOutage() bool {
	if c.Plan == nil {
		return false
	}
	for _, w := range c.Plan.Down {
		if w.Src == -1 && w.Dst == -1 && w.From <= 0 && w.To >= farFuture {
			return true
		}
	}
	return false
}

// Sampling pools. Every n here is paired only with ps where at least
// one algorithm is runnable; genCase re-draws until that holds (and
// falls back to n=48, which every sampled p accepts).
var (
	genPs   = []int{4, 8, 16, 64}
	genNs   = []int{6, 8, 10, 12, 16, 18, 20, 24, 28, 32, 36, 40, 48, 56, 64, 72, 96}
	genTsTw = [][2]float64{
		{150, 3}, // the paper's headline machine
		{10, 3},  // the paper's low-latency machine
		{1, 1}, {500, 10}, {35, 5},
		{1, 0}, {0, 1}, // degenerate corners: free bandwidth / free start-ups
	}
	genTcs    = []float64{0, 0.1, 0.5, 1}
	genScales = []float64{-3, -1, 0.5, 2, 7}
)

// genCase draws one case from the rng. All choices are made through the
// rng in a fixed order, so the case stream is a pure function of the
// rng's seed.
func genCase(rng *rand.Rand) Case {
	p := genPs[rng.Intn(len(genPs))]
	n := genNs[rng.Intn(len(genNs))]
	if len(runnable(n, p)) == 0 {
		n = 48 // divisible for every 2-D and 3-D embedding sampled here
	}
	tstw := genTsTw[rng.Intn(len(genTsTw))]
	c := Case{
		N: n, P: p,
		Ports:       hypermm.PortModel(rng.Intn(2)),
		Ts:          tstw[0],
		Tw:          tstw[1],
		Tc:          genTcs[rng.Intn(len(genTcs))],
		ContentSeed: int64(rng.Intn(1 << 16)),
		Content:     []ContentKind{ContentRandom, ContentRandom, ContentSmallInt, ContentZeroOne}[rng.Intn(4)],
		Scale:       genScales[rng.Intn(len(genScales))],
	}
	c.PlanKind, c.Plan = genPlan(rng)
	return c
}

// genPlan draws a fault plan: mostly clean, sometimes recoverable noise
// (light/messy), sometimes a hostile outage that must surface a typed
// ErrLinkDown rather than a hang or a wrong product.
func genPlan(rng *rand.Rand) (string, *hypermm.FaultPlan) {
	switch k := rng.Intn(10); {
	case k < 4:
		return PlanClean, nil
	case k < 6:
		return PlanLight, &hypermm.FaultPlan{
			Seed:       rng.Uint64(),
			Drop:       0.03 + 0.09*rng.Float64(),
			MaxRetries: 40,
		}
	case k < 8:
		return PlanMessy, &hypermm.FaultPlan{
			Seed:       rng.Uint64(),
			Drop:       0.05 + 0.05*rng.Float64(),
			Dup:        0.1 * rng.Float64(),
			DelayProb:  0.2 * rng.Float64(),
			DelayTime:  1 + 50*rng.Float64(),
			MaxRetries: 40,
		}
	default:
		// Permanent outage: total (every link) or single-target. With a
		// tiny retry budget a used link must surface ErrLinkDown.
		dst := -1
		if rng.Intn(2) == 1 {
			dst = rng.Intn(4)
		}
		return PlanHostile, &hypermm.FaultPlan{
			Seed:       rng.Uint64(),
			Down:       []hypermm.Window{{Src: -1, Dst: dst, From: 0, To: farFuture}},
			MaxRetries: 1 + rng.Intn(2),
		}
	}
}
