// Command bench2json converts `go test -bench` output on stdin into the
// JSON snapshot format of the committed BENCH_*.json files: the run's
// goos, goarch, pkg and cpu header lines, then one record per benchmark
// with its iteration count, ns/op, B/op and allocs/op (when -benchmem
// reported them) and any custom metrics from b.ReportMetric.
//
// Usage:
//
//	go test -run XXX -bench . -benchmem ./internal/matrix | bench2json -o BENCH_kernel.json
//
// The GOMAXPROCS suffix (-N) is stripped from benchmark names so
// snapshots from different machines compare by name. When several
// packages are piped in, pkg is the last one seen. Exits 1 when the
// input holds a FAIL line or no benchmark at all, so a broken benchmark
// run cannot produce an empty snapshot; 2 on usage or I/O errors.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Report is one snapshot file.
type Report struct {
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Pkg        string      `json:"pkg"`
	CPU        string      `json:"cpu"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

var procsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench2json", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "bench2json:", err)
		return 1
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench2json:", err)
		return 2
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench2json:", err)
		return 2
	}
	return 0
}

// parse reads `go test -bench` output. Lines that are neither header
// nor benchmark results (PASS, ok, log output) are skipped.
func parse(r io.Reader) (Report, error) {
	rep := Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if key, val, ok := strings.Cut(line, ": "); ok {
			switch key {
			case "goos":
				rep.GOOS = val
				continue
			case "goarch":
				rep.GOARCH = val
				continue
			case "pkg":
				rep.Pkg = val
				continue
			case "cpu":
				rep.CPU = val
				continue
			}
		}
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return rep, fmt.Errorf("benchmark run failed: %s", line)
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, err := parseResult(line)
		if err != nil {
			return rep, err
		}
		if b != nil {
			rep.Benchmarks = append(rep.Benchmarks, *b)
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if len(rep.Benchmarks) == 0 {
		return rep, errors.New("no benchmark results in input")
	}
	return rep, nil
}

// parseResult decodes "BenchmarkX-8  100  123 ns/op  45 B/op  6 allocs/op
// 7.8 unit ...". A line holding only a name (a benchmark that logged
// before its result) yields nil.
func parseResult(line string) (*Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return nil, nil
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return nil, nil
	}
	if len(f)%2 != 0 {
		return nil, fmt.Errorf("odd value/unit pairing in %q", line)
	}
	b := &Benchmark{Name: procsSuffix.ReplaceAllString(f[0], ""), Iterations: iters}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q in %q", f[i], line)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			n := int64(v)
			b.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			b.AllocsPerOp = &n
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}
