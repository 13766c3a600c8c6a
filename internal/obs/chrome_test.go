package obs

import (
	"bytes"
	"context"
	"testing"
)

func TestParseChromeJSONRoundTrip(t *testing.T) {
	tr := NewTracer("hmmd", 4)
	_, root := tr.StartSpan(context.Background(), "root", Int("n", 16))
	root.End()
	td, _ := tr.Trace(root.TraceID())
	var buf bytes.Buffer
	if err := td.ChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := ParseChromeJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.DisplayTimeUnit != "ms" || len(f.TraceEvents) != 2 {
		t.Fatalf("parsed %+v, want a metadata event and one span in ms", f)
	}
	if ev := f.TraceEvents[1]; ev.Ph != "X" || ev.Name != "root" || ev.Args["n"] != float64(16) {
		t.Errorf("span event %+v lost its fields", ev)
	}
}

func TestParseChromeJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseChromeJSON([]byte("not json")); err == nil {
		t.Error("ParseChromeJSON accepted garbage")
	}
}
