// Package hypermm is a Go reproduction of "Communication Efficient
// Matrix Multiplication on Hypercubes" (Gupta and Sadayappan, SPAA 1994).
//
// It provides:
//
//   - the paper's two new algorithms — the 3-D Diagonal (ThreeDiag) and
//     3-D All (ThreeAll) algorithms — together with their stepping
//     stones (TwoDiag, AllTrans) and every baseline the paper compares
//     against (Simple, Cannon, Ho-Johnsson-Edelman, Berntsen, DNS),
//     all runnable on a simulated hypercube multicomputer built from
//     goroutines and channels (one goroutine per processor, one
//     buffered channel per link) with a deterministic logical clock
//     that charges the paper's t_s + t_w*m communication model under
//     either the one-port or the multi-port machine model;
//   - the paper's analytic cost model: Table 1 collective costs,
//     Table 2 per-algorithm communication overheads, Table 3 space and
//     applicability, and the region maps of Figures 13-14.
//
// Quick start:
//
//	A := hypermm.RandomMatrix(256, 256, 1)
//	B := hypermm.RandomMatrix(256, 256, 2)
//	res, err := hypermm.Run(hypermm.ThreeAll, hypermm.Config{
//		P: 64, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5,
//	}, A, B)
//	// res.C is A*B; res.Elapsed is the simulated time;
//	// res.Comm holds message/word/start-up counters.
package hypermm

import (
	"fmt"
	"math/bits"

	"hypermm/internal/algorithms"
	"hypermm/internal/core"
	"hypermm/internal/cost"
	"hypermm/internal/matrix"
	"hypermm/internal/simnet"
)

// PortModel selects the paper's machine model.
type PortModel int

const (
	// OnePort machines drive at most one send and one receive at a time
	// per node.
	OnePort PortModel = iota
	// MultiPort machines drive all log p links of a node concurrently.
	MultiPort
)

// String implements fmt.Stringer.
func (pm PortModel) String() string { return pm.internal().String() }

func (pm PortModel) internal() simnet.PortModel {
	switch pm {
	case OnePort:
		return simnet.OnePort
	case MultiPort:
		return simnet.MultiPort
	default:
		panic(fmt.Sprintf("hypermm: invalid PortModel(%d)", int(pm)))
	}
}

// Algorithm identifies one of the paper's distributed
// matrix-multiplication algorithms.
type Algorithm int

// The algorithms of the paper, in its order of presentation. ThreeDiag
// and ThreeAll are the paper's contributions; TwoDiag and AllTrans are
// their published stepping stones; the rest are the baselines of
// Section 3.
const (
	Simple Algorithm = iota
	Cannon
	HJE
	Berntsen
	DNS
	TwoDiag
	ThreeDiag
	AllTrans
	ThreeAll
	// Fox is the Fox-Otto-Hey broadcast-multiply-roll algorithm — an
	// extra baseline beyond the paper's Table 2 (its reference [4]).
	Fox
)

// Algorithms lists every runnable algorithm.
var Algorithms = []Algorithm{Simple, Cannon, HJE, Berntsen, DNS, TwoDiag, ThreeDiag, AllTrans, ThreeAll, Fox}

// String implements fmt.Stringer with the paper's names.
func (a Algorithm) String() string { return a.costAlg().String() }

func (a Algorithm) costAlg() cost.Alg {
	switch a {
	case Simple:
		return cost.Simple
	case Cannon:
		return cost.Cannon
	case HJE:
		return cost.HJE
	case Berntsen:
		return cost.Berntsen
	case DNS:
		return cost.DNS
	case TwoDiag:
		return cost.TwoDiag
	case ThreeDiag:
		return cost.ThreeDiag
	case AllTrans:
		return cost.AllTrans
	case ThreeAll:
		return cost.ThreeAll
	case Fox:
		return cost.Fox
	default:
		panic(fmt.Sprintf("hypermm: invalid Algorithm(%d)", int(a)))
	}
}

// ParseAlgorithm resolves a command-line name ("3dall", "cannon", ...)
// to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "simple":
		return Simple, nil
	case "cannon":
		return Cannon, nil
	case "hje":
		return HJE, nil
	case "berntsen":
		return Berntsen, nil
	case "dns":
		return DNS, nil
	case "2dd", "2ddiag", "twodiag":
		return TwoDiag, nil
	case "3dd", "3ddiag", "threediag":
		return ThreeDiag, nil
	case "3dalltrans", "alltrans":
		return AllTrans, nil
	case "3dall", "threeall":
		return ThreeAll, nil
	case "fox":
		return Fox, nil
	default:
		return 0, fmt.Errorf("hypermm: unknown algorithm %q (try simple, cannon, hje, berntsen, dns, fox, 2dd, 3dd, alltrans, 3dall)", s)
	}
}

// ParsePortModel resolves a command-line or request name ("one",
// "multi", "one-port", ...) to a PortModel, mirroring ParseAlgorithm.
func ParsePortModel(s string) (PortModel, error) {
	switch s {
	case "one", "oneport", "one-port":
		return OnePort, nil
	case "multi", "multiport", "multi-port":
		return MultiPort, nil
	default:
		return 0, fmt.Errorf("hypermm: unknown port model %q (try one or multi)", s)
	}
}

// Name returns the short command-line name of the algorithm.
func (a Algorithm) Name() string {
	switch a {
	case Simple:
		return "simple"
	case Cannon:
		return "cannon"
	case HJE:
		return "hje"
	case Berntsen:
		return "berntsen"
	case DNS:
		return "dns"
	case TwoDiag:
		return "2dd"
	case ThreeDiag:
		return "3dd"
	case AllTrans:
		return "alltrans"
	case ThreeAll:
		return "3dall"
	case Fox:
		return "fox"
	default:
		return "?"
	}
}

// Letter returns the single-letter key used in region maps and
// calibration diff reports (matches the legend of RegionMap).
func (a Algorithm) Letter() byte { return a.costAlg().Letter() }

// runner returns the SPMD implementation of the algorithm.
func (a Algorithm) runner() func(*simnet.Machine, *matrix.Dense, *matrix.Dense) (*matrix.Dense, simnet.RunStats, error) {
	switch a {
	case Simple:
		return algorithms.Simple
	case Cannon:
		return algorithms.Cannon
	case HJE:
		return algorithms.HJE
	case Berntsen:
		return algorithms.Berntsen
	case DNS:
		return algorithms.DNS
	case TwoDiag:
		return core.TwoDiag
	case ThreeDiag:
		return core.ThreeDiag
	case AllTrans:
		return core.AllTrans
	case ThreeAll:
		return core.ThreeAll
	case Fox:
		return algorithms.Fox
	default:
		panic(fmt.Sprintf("hypermm: invalid Algorithm(%d)", int(a)))
	}
}

// Runnable reports whether the algorithm's grid embedding and block
// partition exist for an n x n problem on p processors: the integer
// shape preconditions its runner enforces. Applicable is the paper's
// continuous Table 3 condition; Runnable is what Run will accept.
func Runnable(alg Algorithm, n, p int) bool {
	if n <= 0 || p <= 0 || p&(p-1) != 0 {
		return false
	}
	d := bits.Len(uint(p)) - 1
	switch alg {
	case Simple, Cannon, HJE, TwoDiag, Fox:
		// sqrt(p) x sqrt(p) mesh, blocks of n/sqrt(p).
		if d%2 != 0 || n%(1<<(d/2)) != 0 {
			return false
		}
		if alg == HJE && d > 2 {
			// HJE additionally slices each block into log sqrt(p) strips.
			return (n/(1<<(d/2)))%(d/2) == 0
		}
		return true
	case DNS, ThreeDiag:
		// cbrt(p)^3 grid, blocks of n/cbrt(p).
		return d%3 == 0 && n%(1<<(d/3)) == 0
	case Berntsen, AllTrans, ThreeAll:
		// cbrt(p)^3 grid with the finer n/cbrt(p)^2 partition.
		q := 1 << (d / 3)
		return d%3 == 0 && n%(q*q) == 0
	default:
		return false
	}
}

// Config describes the simulated hypercube multicomputer.
type Config struct {
	P     int       // processors; must be a power of two (square for 2-D algorithms, cube for 3-D ones)
	Ports PortModel // one-port or multi-port nodes
	Ts    float64   // message start-up time (per hop)
	Tw    float64   // transfer time per word
	Tc    float64   // compute time per floating-point operation

	// Faults, when non-empty, injects deterministic link failures and
	// switches every transfer to the acknowledged retry protocol; see
	// FaultPlan. Run surfaces ErrLinkDown when a transfer exhausts its
	// retry budget.
	Faults *FaultPlan

	// Deadline, when positive, bounds the simulated time any node may
	// consume; Run surfaces ErrDeadline when a node's clock passes it.
	Deadline float64
}

// DefaultConfig returns the paper's headline parameter set
// (t_s = 150, t_w = 3) on a one-port machine with p processors.
func DefaultConfig(p int) Config {
	return Config{P: p, Ports: OnePort, Ts: 150, Tw: 3, Tc: 0.5}
}
