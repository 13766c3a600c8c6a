package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypermm/internal/calibrate"
	"hypermm/internal/obs"
)

// smallArgs is a fast grid that still covers 2D and 3D algorithms.
func smallArgs(extra ...string) []string {
	return append([]string{"-ns", "16,32", "-ps", "4,16,64"}, extra...)
}

func TestEndToEndProducesValidDeterministicProfile(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(path string) string {
		var stdout, stderr bytes.Buffer
		if code := run(smallArgs("-o", path), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
		}
		for _, want := range []string{"sweep:", "algorithm", "words/proc", "disagreement", "wrote profile"} {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
			}
		}
		return stdout.String()
	}
	p1 := filepath.Join(dir, "a.json")
	p2 := filepath.Join(dir, "b.json")
	out1 := runOnce(p1)
	out2 := runOnce(p2)

	d1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Error("two identical runs wrote different profiles")
	}
	norm := func(s, path string) string { return strings.ReplaceAll(s, path, "OUT") }
	if norm(out1, p1) != norm(out2, p2) {
		t.Error("two identical runs printed different reports")
	}

	profile, err := calibrate.Parse(d1)
	if err != nil {
		t.Fatalf("written profile does not validate: %v", err)
	}
	if _, err := profile.Model(); err != nil {
		t.Fatalf("written profile does not build a model: %v", err)
	}
}

func TestAssertionsFailLoudly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// An impossibly tight error bound must trip the assertion.
	code := run(smallArgs("-o", "-", "-assert-maxerr", "1e-12"), &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit %d with impossible -assert-maxerr, want 1", code)
	}
	if !strings.Contains(stderr.String(), "exceeds bound") {
		t.Errorf("stderr lacks assertion message: %s", stderr.String())
	}
}

func TestTraceFlagWritesChromeTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-ns", "16,32", "-ps", "4", "-o", filepath.Join(dir, "p.json"), "-trace", tracePath},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := obs.ParseChromeJSON(data)
	if err != nil {
		t.Fatalf("trace is not Chrome JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

func TestBadFlagValues(t *testing.T) {
	for _, args := range [][]string{
		{"-ports", "warp"},
		{"-ns", "zebra"},
		{"-ps", ""},
		{"-diff", "150"},
		{"-diff", "a:b"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 2 {
			t.Errorf("run(%v) exit %d, want 2", args, code)
		}
	}
}
