package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeEvent is one record of the Chrome trace-event format. Spans are
// emitted as complete ("X") events with explicit durations; processes
// are named with metadata ("M") events, so Perfetto shows one track
// group per serving process plus one per simulated hypercube node set.
type ChromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeFile is the JSON-object flavor of the format that ChromeJSON
// writes; the wrapper names the display time unit.
type ChromeFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ParseChromeJSON decodes a ChromeJSON document: the one reader for
// every Chrome trace this module writes.
func ParseChromeJSON(data []byte) (ChromeFile, error) {
	var f ChromeFile
	err := json.Unmarshal(data, &f)
	return f, err
}

// ChromeJSON writes the trace in the Chrome trace-event format
// (chrome://tracing, Perfetto). Server-side spans appear as complete
// events, one process track per recorded Process label; when a
// simulated timeline is attached, its per-node events are merged in as
// a separate process, with simulated time [0, Elapsed] mapped linearly
// onto the wall-clock interval the run actually occupied — both sides
// therefore share one clock (microseconds since the trace's first
// span) and nest correctly. Output is deterministic for a given trace.
func (td TraceData) ChromeJSON(w io.Writer) error {
	spans := make([]SpanData, len(td.Spans))
	copy(spans, td.Spans)
	sortSpans(spans)

	// t0: the trace's origin on the shared clock.
	var t0 int64
	for i, sd := range spans {
		if i == 0 || sd.Start < t0 {
			t0 = sd.Start
		}
	}
	if td.Sim != nil && (len(spans) == 0 || td.Sim.Start < t0) {
		t0 = td.Sim.Start
	}
	us := func(nanos int64) float64 { return float64(nanos-t0) / 1e3 }

	// Process labels in order of first appearance get pids 1..N.
	pids := map[string]int{}
	var labels []string
	pidOf := func(label string) int {
		if p, ok := pids[label]; ok {
			return p
		}
		p := len(pids) + 1
		pids[label] = p
		labels = append(labels, label)
		return p
	}

	var evs []ChromeEvent
	for _, sd := range spans {
		label := sd.Process
		if label == "" {
			label = "unknown"
		}
		args := map[string]any{"trace_id": sd.TraceID, "span_id": sd.SpanID}
		if sd.Parent != "" {
			args["parent_id"] = sd.Parent
		}
		for k, v := range sd.Attrs {
			args[k] = v
		}
		evs = append(evs, ChromeEvent{
			Name: sd.Name, Cat: "span", Ph: "X",
			Ts: us(sd.Start), Dur: float64(sd.End-sd.Start) / 1e3,
			Pid: pidOf(label), Tid: 1, Args: args,
		})
	}

	if sim := td.Sim; sim != nil && len(sim.Events) > 0 {
		pid := pidOf(fmt.Sprintf("simulated hypercube (p=%d)", sim.P))
		// Wall nanos spanned by one simulated time unit. A run whose
		// simulated or wall length is degenerate collapses onto its
		// start instant rather than being dropped.
		scale := 0.0
		if sim.Elapsed > 0 && sim.End > sim.Start {
			scale = float64(sim.End-sim.Start) / sim.Elapsed
		}
		for _, e := range sim.Events {
			name := e.Kind.String()
			args := map[string]any{"sim_start": e.Start, "sim_end": e.End, "words": e.Words}
			if name != "compute" {
				name = fmt.Sprintf("%s peer=%d %dw", name, e.Peer, e.Words)
				args["peer"] = e.Peer
			}
			start := float64(sim.Start) + e.Start*scale
			dur := (e.End - e.Start) * scale
			evs = append(evs, ChromeEvent{
				Name: name, Cat: "sim", Ph: "X",
				Ts: (start - float64(t0)) / 1e3, Dur: dur / 1e3,
				Pid: pid, Tid: e.Node + 1, Args: args,
			})
		}
	}

	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Pid != evs[j].Pid {
			return evs[i].Pid < evs[j].Pid
		}
		if evs[i].Tid != evs[j].Tid {
			return evs[i].Tid < evs[j].Tid
		}
		return evs[i].Ts < evs[j].Ts
	})

	out := ChromeFile{DisplayTimeUnit: "ms", TraceEvents: make([]ChromeEvent, 0, len(evs)+len(labels))}
	for _, label := range labels {
		out.TraceEvents = append(out.TraceEvents, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pids[label],
			Args: map[string]any{"name": label},
		})
	}
	out.TraceEvents = append(out.TraceEvents, evs...)

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
