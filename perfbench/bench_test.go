package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stsk"
)

// benchSpec is the part of BENCHMARK.json the self-test checks.
type benchSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// shapeOf returns a workload's production open-loop plan.
func shapeOf(workload string) rateShape {
	switch workload {
	case "registry-mix":
		return registrySizes.rates
	case "http-routed":
		return httpSizes.rates
	}
	return rateShape{}
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram checks that BENCHMARK.json names exactly the
// program's workloads and metrics, with the program's units, and that
// each workload's recorded rates and limit are the ones the program runs.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, more than 200", w.Name, len(w.Why))
		}
		if want := shapeOf(w.Name).describe(); !strings.Contains(w.Why, want) {
			t.Errorf("workload %s: why does not state %q", w.Name, want)
		}
	}
	for _, set := range []struct {
		names []string
		got   []struct{ Name, Unit string }
	}{{endToEnd, s.EndToEnd}, {perLayer(), s.PerLayer}} {
		if len(set.got) != len(set.names) {
			t.Errorf("BENCHMARK.json lists %d metrics where the program prints %d", len(set.got), len(set.names))
		}
		for _, m := range set.got {
			if u, ok := unit[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, u)
			}
		}
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload once at tiny
// size and one rate, untraced and traced, and checks that it passes its
// correctness gate and prints every metric BENCHMARK.json names, with its
// unit and a finite value.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	s := readSpec(t)
	t.Chdir(t.TempDir()) // the traced run writes its spans under the working directory
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				cfg := config{workload: w.Name, seed: 3, seconds: 1, trace: traced, tiny: true}
				res, r, err := execute(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
					if _, err := os.Stat(r.spanFile); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestCorruptedAnswerTripsGate checks that the correctness gate rejects
// an answer that differs from the sequential sweep in one bit.
func TestCorruptedAnswerTripsGate(t *testing.T) {
	mat, err := stsk.Generate("grid3d", 500)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stsk.Build(mat, stsk.STS3)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, plan.N())
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x, err := plan.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{plans: []*stsk.Plan{plan}, orig: [][]float64{mat.Values()}, pools: [][][]float64{{b}}}
	good := sample{hash: hashVec(x)}
	x[len(x)/2] = math.Float64frombits(math.Float64bits(x[len(x)/2]) ^ 1)
	bad := sample{hash: hashVec(x)}
	wrong, err := ref.check([]sample{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	if wrong != 1 {
		t.Fatalf("gate found %d wrong answers among one good and one corrupted, want 1", wrong)
	}

	r := &run{log: io.Discard}
	r.wrongAnswers(wrong, "corrupted")
	if r.failed != 1 || r.wrong != 1 {
		t.Fatalf("a wrong answer booked failed=%d wrong=%d, want 1 and 1", r.failed, r.wrong)
	}
}
