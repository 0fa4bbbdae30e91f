package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// TestSmoke runs every workload with a tiny operation count, untraced and
// traced, and requires zero failed operations and every metric
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for trace, names := range [][]struct{ Name string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				spec, ok := workloads[w.Name]
				if !ok {
					t.Fatalf("BENCHMARK.json names workload %s, the benchmark has none", w.Name)
				}
				cfg := config{workload: w.Name, seed: 7, ops: 64, warmup: 16, setups: 1, trace: trace == 1}
				var log bytes.Buffer
				res, err := measure(cfg, spec.w, t.TempDir(), &log)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted < 64 || !res.Correct {
					t.Fatalf("attempted %d, failed %d, correct %t\n%s", res.Attempted, res.Failed, res.Correct, &log)
				}
				for _, m := range names {
					if _, ok := res.Metrics[m.Name]; !ok {
						t.Errorf("metric %s not emitted", m.Name)
					}
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(names))
				}
			})
		}
	}
}
