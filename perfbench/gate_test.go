package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"hypermm"
	"hypermm/internal/server"
)

func servedFrom(t *testing.T, res *hypermm.Result) *server.MatmulResponse {
	t.Helper()
	// Round-trip through JSON as the wire does.
	b, err := json.Marshal(server.MatmulResponse{
		C: res.C.Data,
		Simulated: server.SimulatedStats{
			Elapsed: res.Elapsed, Msgs: res.Comm.Msgs, Words: res.Comm.Words,
			Startups: res.Comm.Startups, Flops: res.Comm.Flops, Retries: res.Comm.Retries,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out server.MatmulResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestServingGateRejectsCorruptedProduct(t *testing.T) {
	k := opKind{Alg: hypermm.ThreeAll, N: 16, P: 64}
	op := newOperand(k.N, 3)
	ref, err := hypermm.Run(k.Alg, k.config(), op.A, op.B)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServed(ref, servedFrom(t, ref)); err != nil {
		t.Fatalf("an exact served product was rejected: %v", err)
	}

	flipped := servedFrom(t, ref)
	flipped.C[37] = math.Nextafter(flipped.C[37], math.Inf(1)) // one ulp
	if checkServed(ref, flipped) == nil {
		t.Error("a product one ulp off was accepted")
	}
	short := servedFrom(t, ref)
	short.C = short.C[:len(short.C)-1]
	if checkServed(ref, short) == nil {
		t.Error("a truncated product was accepted")
	}
	late := servedFrom(t, ref)
	late.Simulated.Elapsed++
	if checkServed(ref, late) == nil {
		t.Error("a different simulated time was accepted")
	}
	chatty := servedFrom(t, ref)
	chatty.Simulated.Msgs++
	if checkServed(ref, chatty) == nil {
		t.Error("a different message count was accepted")
	}
}

func TestLibraryGateRejectsCorruptedProduct(t *testing.T) {
	op := newOperand(32, 5)
	res, err := hypermm.Run(hypermm.Cannon, hypermm.DefaultConfig(16), op.A, op.B)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProduct(op.want, res.C); err != nil {
		t.Fatalf("a correct product was rejected: %v", err)
	}
	res.C.Data[5] += 1e-3
	if checkProduct(op.want, res.C) == nil {
		t.Error("a corrupted product was accepted")
	}
	res.C.Data[5] = math.NaN()
	if checkProduct(op.want, res.C) == nil {
		t.Error("a NaN product was accepted")
	}
}

func TestLedgerReportsCounterDrift(t *testing.T) {
	l := newLedger()
	k := opKind{Alg: hypermm.Cannon, N: 32, P: 16}
	c := simCounts{Elapsed: 100, Msgs: 10, Words: 40}
	if l.observe(k, c) != nil || l.observe(k, c) != nil {
		t.Fatal("identical repeats reported as drift")
	}
	c.Words++
	if l.observe(k, c) == nil || len(l.drift) != 1 {
		t.Error("a changed word count was not reported as drift")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the names and units the
// program prints in step with the benchmark's definition file.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.code))
			continue
		}
		for i := range c.code {
			if c.json[i].Name != c.code[i].Name || c.json[i].Unit != c.code[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", c.name, i, c.json[i], c.code[i])
			}
		}
	}
}
