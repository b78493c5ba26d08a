package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"

	"github.com/carbonedge/carbonedge/internal/deploy"
)

// TestSmoke runs every workload at tiny size, untraced and traced, and
// requires each rep to match the in-process oracle and every metric to be
// reported.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name, true)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			o := options{workload: name, seed: 7, seconds: 0, trace: traced}
			res, err := bench(w, o, fingerprint(), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, m.name, got, m.unit)
				}
			}
			if !traced && res.Metrics["edge_slots_per_s"].Value <= 0 {
				t.Errorf("%s: non-positive throughput", name)
			}
		}
	}
}

// TestChurnResumesRepeat pins that the churn workload's resume count is a
// function of the seed alone.
func TestChurnResumesRepeat(t *testing.T) {
	w, err := newWorkload("regional-churn", true)
	if err != nil {
		t.Fatal(err)
	}
	var counts []float64
	for i := 0; i < 2; i++ {
		r, err := w.rep(3, &tracer{spans: newSpanLog(w.spanCapacity())})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, r.layers["deploy.region_resumes"])
	}
	if counts[0] == 0 || counts[0] != counts[1] {
		t.Fatalf("region resumes %v, want equal and positive", counts)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and metric
// lists in step with what the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, wl.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the benchmark",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestCutPipeIsNotTransient pins why no workload churns edge links: a cut
// net.Pipe surfaces as io.ErrClosedPipe, which the deploy tier treats as
// fatal, so the run would abort instead of resuming.
func TestCutPipeIsNotTransient(t *testing.T) {
	if deploy.Transient(io.ErrClosedPipe) {
		t.Fatal("deploy.Transient(io.ErrClosedPipe) is true: edge-link churn over pipes is now possible; update README.md")
	}
}
