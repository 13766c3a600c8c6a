package hypermm

import (
	"io"
	"math"

	"hypermm/internal/obs"
	"hypermm/internal/simnet"
	"hypermm/internal/trace"
)

// Trace is the recorded event timeline of a traced run.
type Trace struct {
	log     *trace.Log
	p       int
	elapsed float64
}

// RunTraced is Run with event tracing enabled: every send, receive and
// compute span is recorded in simulated time. Tracing does not change
// the simulated clocks.
func RunTraced(alg Algorithm, cfg Config, A, B *Matrix) (*Result, *Trace, error) {
	m, err := newMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	return runTracedOn(m, alg, A, B)
}

// runTracedOn is runOn with event tracing attached to the machine for
// the duration of the run (MachinePool strips the trace at return).
func runTracedOn(m *simnet.Machine, alg Algorithm, A, B *Matrix) (*Result, *Trace, error) {
	log := trace.New()
	m.Cfg.Trace = log
	res, err := runOn(m, alg, A, B)
	if err != nil {
		return nil, nil, err
	}
	return res, &Trace{log: log, p: m.P(), elapsed: res.Elapsed}, nil
}

// Gantt renders the timeline as one text row per node, width columns
// wide ('#' compute, 's' send, 'r' receive, '.' idle). Widths below a
// small minimum — including zero and negative values — are clamped to
// that minimum rather than misrendering.
func (t *Trace) Gantt(width int) string { return t.log.Gantt(width) }

// Summary returns per-node busy-time totals and the overall
// compute/communication split.
func (t *Trace) Summary() string { return t.log.Summary() }

// Events returns the number of recorded events.
func (t *Trace) Events() int { return t.log.Len() }

// ChromeJSON writes the timeline in the Chrome trace-event format
// (loadable in chrome://tracing or Perfetto) through the same writer as
// hmmd's merged request traces: one complete ("X") event per
// send/receive/compute span, nodes as threads of one named "simulated
// hypercube" process. One simulated time unit is one microsecond, the
// format's native unit.
func (t *Trace) ChromeJSON(w io.Writer) error {
	return obs.TraceData{Sim: &obs.SimTimeline{
		Events: t.log.Events(), Elapsed: t.elapsed, P: t.p,
		End: int64(math.Round(t.elapsed * 1e3)), // unit -> µs, in wall nanos
	}}.ChromeJSON(w)
}

// TimelineEvents returns a copy of the recorded per-node events sorted
// by (node, start). The element type lives in hypermm/internal/trace,
// so only packages inside this module can name it — it exists for the
// observability layer's merged exports (internal/obs), not for public
// consumption.
func (t *Trace) TimelineEvents() []trace.Event { return t.log.Events() }
