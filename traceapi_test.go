package hypermm

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hypermm/internal/obs"
)

func tracedFixture(t *testing.T) *Trace {
	t.Helper()
	A := RandomMatrix(16, 16, 1)
	B := RandomMatrix(16, 16, 2)
	_, tr, err := RunTraced(Cannon, Config{P: 4, Ports: OnePort, Ts: 10, Tw: 1, Tc: 0.5}, A, B)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestChromeJSONRoundTrip: a traced run's Chrome export parses back to
// one complete event per recorded span, nodes as threads of a single
// named process, one simulated unit per microsecond.
func TestChromeJSONRoundTrip(t *testing.T) {
	tr := tracedFixture(t)
	var buf bytes.Buffer
	if err := tr.ChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := obs.ParseChromeJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q, want ms", f.DisplayTimeUnit)
	}
	evs := tr.TimelineEvents()
	if len(f.TraceEvents) != 1+len(evs) {
		t.Fatalf("got %d chrome events for %d spans, want one metadata event plus one per span",
			len(f.TraceEvents), len(evs))
	}
	meta := f.TraceEvents[0]
	if name, _ := meta.Args["name"].(string); meta.Ph != "M" || name != "simulated hypercube (p=4)" {
		t.Errorf("first event %+v, want the process_name metadata", meta)
	}
	// The writer orders events by (thread, start); Events() sorts by
	// (node, start), so event i+1 corresponds to evs[i].
	for i, e := range evs {
		got := f.TraceEvents[i+1]
		if got.Ph != "X" || got.Cat != "sim" || got.Pid != meta.Pid || got.Tid != e.Node+1 {
			t.Errorf("event %d: %+v does not place node %d on the sim process", i, got, e.Node)
		}
		if math.Abs(got.Ts-e.Start) > 1e-6 || math.Abs(got.Dur-(e.End-e.Start)) > 1e-6 {
			t.Errorf("event %d: ts=%g dur=%g, want %g..%g in µs", i, got.Ts, got.Dur, e.Start, e.End)
		}
		if e.Kind.String() != "compute" && !strings.Contains(got.Name, "peer=") {
			t.Errorf("event %d: comm event name %q lacks peer", i, got.Name)
		}
	}
}

func TestChromeJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := tracedFixture(t).ChromeJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tracedFixture(t).ChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("ChromeJSON output differs across identical runs")
	}
}
