package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hypermm/internal/obs"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans
// are counted but dropped.
const maxSpans = 200000

// recorder keeps the benchmark's own spans in memory until the run
// ends. A nil recorder records nothing, which is how the untraced run
// measures and how a traced run leaves some operations untraced to
// measure the tracing overhead on itself.
type recorder struct {
	seq     atomic.Uint64
	mu      sync.Mutex
	spans   []obs.SpanData
	dropped int
}

// newTrace returns a fresh trace ID, "" when not recording.
func (r *recorder) newTrace() string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("%032x", r.seq.Add(1))
}

// span is one open benchmark span; a nil span ignores every call.
type span struct {
	r *recorder
	d obs.SpanData
}

// start opens a span in trace (a newTrace ID) under parent ("" for a
// root). process names the track the span is drawn on.
func (r *recorder) start(process, name, trace, parent string) *span {
	if r == nil || trace == "" {
		return nil
	}
	return &span{r: r, d: obs.SpanData{
		TraceID: trace, SpanID: fmt.Sprintf("%016x", r.seq.Add(1)), Parent: parent,
		Name: name, Process: process, Start: time.Now().UnixNano(),
	}}
}

func (s *span) id() string {
	if s == nil {
		return ""
	}
	return s.d.SpanID
}

func (s *span) trace() string {
	if s == nil {
		return ""
	}
	return s.d.TraceID
}

// end closes the span with optional attributes and stores it.
func (s *span) end(attrs ...obs.Attr) {
	if s == nil {
		return
	}
	s.d.End = time.Now().UnixNano()
	if len(attrs) > 0 {
		s.d.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			s.d.Attrs[a.Key] = a.Value
		}
	}
	s.r.add(s.d)
}

// add stores finished spans, such as a server's own spans for a
// sampled request.
func (r *recorder) add(spans ...obs.SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sd := range spans {
		if len(r.spans) >= maxSpans {
			r.dropped++
			continue
		}
		r.spans = append(r.spans, sd)
	}
}

func (r *recorder) snapshot() []obs.SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obs.SpanData(nil), r.spans...)
}

// writeChrome writes every recorded span as one Chrome trace-event file
// through the program's own exporter.
func (r *recorder) writeChrome(w io.Writer) error {
	spans := r.snapshot()
	// ChromeJSON insertion-sorts by start; handing it sorted spans keeps
	// that linear.
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].End != spans[j].End {
			return spans[i].End < spans[j].End
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	return obs.TraceData{TraceID: "perfbench", Spans: spans}.ChromeJSON(w)
}

// selfStat is a span name's total and self time across a run.
type selfStat struct {
	Count   int
	TotalMs float64
	SelfMs  float64
}

// selfTimes computes, per span name, the summed span durations and the
// summed self time: each span's duration minus the part of it that its
// children's intervals cover.
func selfTimes(spans []obs.SpanData) map[string]selfStat {
	type iv struct{ lo, hi int64 }
	children := map[string][]iv{}
	for _, sd := range spans {
		if sd.Parent != "" {
			key := sd.TraceID + "/" + sd.Parent
			children[key] = append(children[key], iv{sd.Start, sd.End})
		}
	}
	out := map[string]selfStat{}
	for _, sd := range spans {
		dur := sd.End - sd.Start
		kids := children[sd.TraceID+"/"+sd.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, hi := int64(0), sd.Start
		for _, k := range kids {
			lo := max(k.lo, hi)
			end := min(k.hi, sd.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		st := out[sd.Name]
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered) / 1e6
		out[sd.Name] = st
	}
	return out
}
