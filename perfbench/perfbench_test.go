package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// The benchmark's self-test, at tiny sizes: every named metric is emitted
// with its unit, every output check passes on two seeds, and a perturbed
// expectation is caught. Run with `go test` from perfbench/.

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalogue %+v", i, b.Workloads[i], w)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalogue %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestTinyRunsEmitEveryMetricAndPassChecks(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			for _, seed := range []int64{1, 2} {
				o := options{workload: w.name, seed: seed, seconds: 0.6, trace: trace, tiny: true, out: t.TempDir()}
				rep, err := execute(context.Background(), o)
				if err != nil {
					t.Fatalf("%s trace=%t seed=%d: %v", w.name, trace, seed, err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("%s trace=%t seed=%d: correct=%t failed=%d attempted=%d\n%v",
						w.name, trace, seed, rep.Correct, rep.Failed, rep.Attempted, rep.lines)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, m.name, got, m.unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, got.Value)
					}
				}
			}
		}
	}
}

// TestPerturbedExpectationIsDetected changes one expectation of each
// workload's model after a clean run and requires the output check to fail.
func TestPerturbedExpectationIsDetected(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads(true) {
		sys, err := w.build(ctx, 3, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rec := &recorder{}
		if err := sys.run(ctx, 200*time.Millisecond, rec); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := sys.verify(ctx); err != nil || rec.failed != 0 {
			t.Fatalf("%s: clean run: verify %v, %d failed ops", w.name, err, rec.failed)
		}
		switch s := sys.(type) {
		case *feedSystem:
			s.window[0] = s.window[0][1:] // forget one post of author 0
		case *wireSystem:
			s.settle = 50 * time.Millisecond
			s.clients[0].keys[0] = s.clients[0].keys[0][1:] // forget one live fact
		case *wepicSystem:
			s.sel[0] = s.otherThan(0, s.sel[0]) // expect another selection
		}
		if err := sys.verify(ctx); err == nil {
			t.Errorf("%s: perturbed expectation not detected", w.name)
		} else {
			t.Logf("%s: detected: %v", w.name, err)
		}
		sys.close()
	}
}
