// Package server is the hmmd serving subsystem: a planner that wraps
// the paper's Table-2 cost model behind an LRU plan cache, a bounded
// job scheduler with admission control that executes multiplications on
// the simulated hypercube, Prometheus-text metrics, and the HTTP/JSON
// handlers that tie them together. cmd/hmmd is the thin daemon around
// it.
package server

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"hypermm"
)

// Typed planner errors, mapped to HTTP statuses by the handlers.
var (
	// ErrInapplicable reports that no candidate algorithm (or the
	// explicitly requested one) can run the problem at (n, p) under the
	// paper's Table 3 conditions.
	ErrInapplicable = errors.New("server: no applicable algorithm at (n, p)")
	// ErrBadRequest reports invalid planning parameters.
	ErrBadRequest = errors.New("server: invalid plan parameters")
)

// PlanRequest asks the planner which algorithm to run and what it will
// cost. P = 0 asks the planner to also pick the cheapest power-of-two
// machine size.
type PlanRequest struct {
	N     float64
	P     float64 // 0: search powers of two up to MaxAutoP
	Ts    float64
	Tw    float64
	Tc    float64
	Ports hypermm.PortModel
	// Alg, when non-nil, forces the algorithm instead of choosing the
	// Table-2 winner.
	Alg *hypermm.Algorithm
}

// Candidate is the per-algorithm diagnostic row of a plan: why each
// member of the comparison set was or was not chosen.
type Candidate struct {
	Algorithm  string  `json:"algorithm"`
	Applicable bool    `json:"applicable"`
	A          float64 `json:"a,omitempty"`
	B          float64 `json:"b,omitempty"`
	CommTime   float64 `json:"comm_time,omitempty"`
	TotalTime  float64 `json:"total_time,omitempty"`
}

// Plan is the planner's verdict: the chosen algorithm, its predicted
// Table-2 overheads and times, and applicability diagnostics for the
// whole candidate set.
type Plan struct {
	Algorithm     hypermm.Algorithm `json:"-"`
	AlgorithmName string            `json:"algorithm"`
	Auto          bool              `json:"auto"`
	N             float64           `json:"n"`
	P             float64           `json:"p"`
	Ports         string            `json:"ports"`
	A             float64           `json:"a"`
	B             float64           `json:"b"`
	CommTime      float64           `json:"comm_time"`
	ComputeTime   float64           `json:"compute_time"`
	PredictedTime float64           `json:"predicted_time"`
	Efficiency    float64           `json:"efficiency,omitempty"`
	SpaceWords    float64           `json:"space_words,omitempty"`
	Aligned       bool              `json:"aligned"`
	// Calibrated reports whether PredictedTime (and the algorithm
	// choice) came from a measurement-fitted calibration profile; when
	// true, UncalibratedTime preserves the raw Table-2 prediction for
	// comparison.
	Calibrated       bool        `json:"calibrated"`
	UncalibratedTime float64     `json:"uncalibrated_time,omitempty"`
	Candidates       []Candidate `json:"candidates,omitempty"`
}

// MaxAutoP bounds the planner's machine-size search when P = 0.
const MaxAutoP = 1 << 16

// planKey is the comparable cache key; alg is -1 for auto.
type planKey struct {
	n, p, ts, tw, tc float64
	ports            hypermm.PortModel
	alg              int
}

// Planner evaluates plans and caches them. Safe for concurrent use.
type Planner struct {
	// model, when non-nil, is the loaded calibration: predicted times
	// come from the measurement-fitted model instead of the raw Table 2
	// expressions, and plans are marked Calibrated. Set before serving
	// (WithCalibration); immutable afterwards, so cache entries never
	// mix models.
	model *hypermm.CalibratedModel

	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recent; values are *planEntry
	index map[planKey]*list.Element
	hits  int64
	miss  int64
}

type planEntry struct {
	key  planKey
	plan *Plan
}

// NewPlanner returns a planner with an LRU cache of the given capacity
// (minimum 1).
func NewPlanner(cacheSize int) *Planner {
	if cacheSize < 1 {
		cacheSize = 1
	}
	return &Planner{cap: cacheSize, lru: list.New(), index: map[planKey]*list.Element{}}
}

// WithCalibration installs a measurement-fitted cost model: every
// subsequent plan predicts with it and is marked Calibrated. Call
// before serving; the planner does not support swapping models under a
// warm cache.
func (pl *Planner) WithCalibration(m *hypermm.CalibratedModel) *Planner {
	pl.model = m
	return pl
}

// Calibrated reports whether a calibration model is installed.
func (pl *Planner) Calibrated() bool { return pl.model != nil }

// CacheStats returns cumulative hit and miss counts plus the current
// number of cached entries.
func (pl *Planner) CacheStats() (hits, misses, entries int64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.hits, pl.miss, int64(pl.lru.Len())
}

// Plan answers the request, from cache when possible. The returned Plan
// is a copy the caller may keep.
func (pl *Planner) Plan(req PlanRequest) (*Plan, error) {
	if req.N < 1 || req.P < 0 || req.Ts < 0 || req.Tw < 0 || req.Tc < 0 {
		return nil, fmt.Errorf("%w: n=%g p=%g ts=%g tw=%g tc=%g",
			ErrBadRequest, req.N, req.P, req.Ts, req.Tw, req.Tc)
	}
	key := planKey{n: req.N, p: req.P, ts: req.Ts, tw: req.Tw, tc: req.Tc, ports: req.Ports, alg: -1}
	if req.Alg != nil {
		key.alg = int(*req.Alg)
	}

	pl.mu.Lock()
	if el, ok := pl.index[key]; ok {
		pl.lru.MoveToFront(el)
		pl.hits++
		plan := clonePlan(el.Value.(*planEntry).plan)
		pl.mu.Unlock()
		return plan, nil
	}
	pl.miss++
	pl.mu.Unlock()

	plan, err := pl.evaluate(req)
	if err != nil {
		return nil, err
	}

	pl.mu.Lock()
	if el, ok := pl.index[key]; ok {
		pl.lru.MoveToFront(el) // raced with another evaluator; keep theirs
	} else {
		pl.index[key] = pl.lru.PushFront(&planEntry{key: key, plan: clonePlan(plan)})
		for pl.lru.Len() > pl.cap {
			old := pl.lru.Back()
			delete(pl.index, old.Value.(*planEntry).key)
			pl.lru.Remove(old)
		}
	}
	pl.mu.Unlock()
	return plan, nil
}

// PlanRunnable plans a request that will run at the integer shape
// (n, p). The Table-2 winner is continuous in (n, p) and may have no
// grid embedding at the actual shape, so an auto plan whose algorithm
// is not hypermm.Runnable there falls back to the fastest-predicted
// candidate that is; ErrInapplicable only when no candidate is runnable.
// Explicit algorithms are planned as requested.
func (pl *Planner) PlanRunnable(req PlanRequest, n, p int) (*Plan, error) {
	plan, err := pl.Plan(req)
	if err != nil || req.Alg != nil || hypermm.Runnable(plan.Algorithm, n, p) {
		return plan, err
	}
	var best *Plan
	for _, alg := range hypermm.Candidates(req.Ports) {
		if !hypermm.Runnable(alg, n, p) {
			continue
		}
		forced := req
		forced.Alg = &alg
		if cand, err := pl.Plan(forced); err == nil && (best == nil || cand.PredictedTime < best.PredictedTime) {
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no candidate runnable at n=%d p=%d", ErrInapplicable, n, p)
	}
	best.Auto = true
	return best, nil
}

func clonePlan(p *Plan) *Plan {
	cp := *p
	cp.Candidates = append([]Candidate(nil), p.Candidates...)
	return &cp
}

// evaluate computes a plan from the cost model — calibrated when the
// planner has a profile loaded — uncached.
func (pl *Planner) evaluate(req PlanRequest) (*Plan, error) {
	if req.P == 0 {
		return pl.evaluateAutoP(req)
	}
	n, p := req.N, req.P
	var chosen hypermm.Algorithm
	auto := req.Alg == nil
	if auto {
		// A nil model's BestAlgorithm is exactly hypermm.BestAlgorithm,
		// so the calibrated and uncalibrated paths share one call.
		best, ok := pl.model.BestAlgorithm(n, p, req.Ts, req.Tw, req.Ports)
		if !ok {
			return nil, fmt.Errorf("%w: n=%g p=%g", ErrInapplicable, n, p)
		}
		chosen = best
	} else {
		chosen = *req.Alg
		if !hypermm.Applicable(chosen, n, p) {
			return nil, fmt.Errorf("%w: %v at n=%g p=%g", ErrInapplicable, chosen, n, p)
		}
	}

	a, b, _ := hypermm.Overhead(chosen, n, p, req.Ports)
	comm, _ := pl.model.CommTime(chosen, n, p, req.Ts, req.Tw, req.Ports)
	comp := hypermm.ComputeTime(n, p, req.Tc)
	plan := &Plan{
		Algorithm:     chosen,
		AlgorithmName: chosen.Name(),
		Auto:          auto,
		N:             n,
		P:             p,
		Ports:         req.Ports.String(),
		A:             a,
		B:             b,
		CommTime:      comm,
		ComputeTime:   comp,
		PredictedTime: comm + comp,
		Aligned:       hypermm.Aligned(chosen),
		Calibrated:    pl.model != nil,
	}
	if pl.model != nil {
		raw, _ := hypermm.CommTime(chosen, n, p, req.Ts, req.Tw, req.Ports)
		plan.UncalibratedTime = raw + comp
	}
	if e, ok := hypermm.Efficiency(chosen, n, p, req.Ts, req.Tw, req.Tc, req.Ports); ok {
		plan.Efficiency = e
	}
	if s, ok := hypermm.Space(chosen, n, p); ok {
		plan.SpaceWords = s
	}
	for _, c := range hypermm.Candidates(req.Ports) {
		d := Candidate{Algorithm: c.Name(), Applicable: hypermm.Applicable(c, n, p)}
		if d.Applicable {
			d.A, d.B, _ = hypermm.Overhead(c, n, p, req.Ports)
			d.CommTime, _ = pl.model.CommTime(c, n, p, req.Ts, req.Tw, req.Ports)
			d.TotalTime = d.CommTime + hypermm.ComputeTime(n, p, req.Tc)
		}
		plan.Candidates = append(plan.Candidates, d)
	}
	return plan, nil
}

// evaluateAutoP searches machine sizes p = 2, 4, ..., MaxAutoP for the
// plan with the least predicted total time.
func (pl *Planner) evaluateAutoP(req PlanRequest) (*Plan, error) {
	var best *Plan
	for p := 2.0; p <= MaxAutoP; p *= 2 {
		sub := req
		sub.P = p
		plan, err := pl.evaluate(sub)
		if err != nil {
			continue
		}
		if best == nil || plan.PredictedTime < best.PredictedTime {
			best = plan
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: n=%g over p in [2, %d]", ErrInapplicable, req.N, MaxAutoP)
	}
	return best, nil
}
