package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: hypermm
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLocalMatMul/n=32-2         	   10000	    101234 ns/op	   8192 B/op	       1 allocs/op
BenchmarkCollective_Bcast_P8-2      	   11121	     53364 ns/op	         3.000 sim_a	       288.0 sim_b
PASS
ok  	hypermm	3.210s
goos: linux
goarch: amd64
pkg: hypermm/internal/server
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServe_WarmPool_P64-2       	     645	   1229773 ns/op	       813.2 req/s	  382501 B/op	    5370 allocs/op
PASS
ok  	hypermm/internal/server	1.5s
`

func i64(v int64) *int64 { return &v }

func TestParseMatchesSnapshotSchema(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := Report{
		GOOS: "linux", GOARCH: "amd64", Pkg: "hypermm/internal/server",
		CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkLocalMatMul/n=32", Iterations: 10000, NsPerOp: 101234,
				BytesPerOp: i64(8192), AllocsPerOp: i64(1)},
			{Name: "BenchmarkCollective_Bcast_P8", Iterations: 11121, NsPerOp: 53364,
				Metrics: map[string]float64{"sim_a": 3, "sim_b": 288}},
			{Name: "BenchmarkServe_WarmPool_P64", Iterations: 645, NsPerOp: 1229773,
				BytesPerOp: i64(382501), AllocsPerOp: i64(5370),
				Metrics: map[string]float64{"req/s": 813.2}},
		},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", rep, want)
	}
}

// TestCommittedSnapshotsRoundTrip: every committed BENCH_*.json decodes
// into Report and re-encodes to the same bytes, so the emitted schema
// is exactly the committed one.
func TestCommittedSnapshotsRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed snapshots found: %v", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		again, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(again)+"\n" != string(raw) {
			t.Errorf("%s does not re-encode byte for byte", p)
		}
	}
}

func TestRunWritesFileAndRejectsBadInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", out}, strings.NewReader(sample), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil || !bytes.Contains(raw, []byte(`"ns_per_op": 1229773`)) {
		t.Fatalf("output file: %v\n%s", err, raw)
	}

	for name, in := range map[string]string{
		"empty":  "PASS\nok  \thypermm\t0.1s\n",
		"failed": "BenchmarkX-2  \t 10\t 5 ns/op\n--- FAIL: BenchmarkY\nFAIL\n",
		"odd":    "BenchmarkX-2  \t 10\t 5 ns/op\t 7\n",
	} {
		if code := run(nil, strings.NewReader(in), &stdout, &stderr); code != 1 {
			t.Errorf("%s input: exit %d, want 1", name, code)
		}
	}
	if code := run([]string{"-bogus"}, strings.NewReader(sample), &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}
