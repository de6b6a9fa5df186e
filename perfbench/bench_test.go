package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"pops"
	"pops/internal/popsnet"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// against: the metric names each kind of run must print.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func names(xs []struct{ Name string }) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.Name
	}
	slices.Sort(out)
	return out
}

func metricNames(res *result) []string {
	out := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestTinyRunsEmitEveryMetric runs every workload briefly, untraced and
// traced — mixed-open too, though BENCHMARK.json does not gate on it — and
// checks each prints exactly the metrics BENCHMARK.json names, with every
// request answered correctly.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if specByName(w.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, err := run(sp, 3, time.Second, trace)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", sp.name, trace, err)
			}
			want := names(bf.EndToEnd)
			if trace {
				want = names(bf.PerLayer)
			}
			if got := metricNames(res); !slices.Equal(got, want) {
				t.Errorf("%s (trace %v) printed %v, want %v", sp.name, trace, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", sp.name, trace, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// ladderSlack is how far below the rung under it a rung's median may fall
// before the self-test fails: adjacent rungs can differ by only a few
// percent (core.plan over edgecolor.factorize on cold-perm), within the
// timing noise of a 40-input median.
const ladderSlack = 0.9

// TestLadderNonDecreasing checks that on every workload each rung of the
// served path costs at least what the layer it wraps costs.
func TestLadderNonDecreasing(t *testing.T) {
	for _, sp := range specs {
		in, err := sp.gen(rand.New(rand.NewSource(5)), 1)
		if err != nil {
			t.Fatal(err)
		}
		lad, err := runLadder(sp, in)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		for i := 1; i < len(lad.chain); i++ {
			lo, hi := lad.chain[i-1], lad.chain[i]
			if lad.med[hi] < ladderSlack*lad.med[lo] {
				t.Errorf("%s: rung %s (%.4f ms) below the rung it wraps, %s (%.4f ms)",
					sp.name, hi, lad.med[hi], lo, lad.med[lo])
			}
		}
	}
}

// TestCheckRejectsTamperedAnswers feeds the correctness checks answers
// with a wrong slot count or fingerprint, and schedules with a slot
// dropped or a packet misrouted.
func TestCheckRejectsTamperedAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := newPerm(classCold, 4, 4, pops.RandomPermutation(16, rng))
	good := sample{req: r, slots: r.slots, fp: r.fp}
	if err := check(&good, r); err != nil {
		t.Fatalf("untampered answer rejected: %v", err)
	}
	for name, s := range map[string]sample{
		"slot count":  {req: r, slots: r.slots + 1, fp: r.fp},
		"fingerprint": {req: r, slots: r.slots, fp: "0000000000000000"},
	} {
		if check(&s, r) == nil {
			t.Errorf("answer with a tampered %s accepted", name)
		}
	}

	pl, err := pops.NewPlanner(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl.Execute(bg, r.w)
	if err != nil {
		t.Fatal(err)
	}
	sched := plan.Schedule()
	if err := replay(r, sched); err != nil {
		t.Fatalf("untampered schedule rejected: %v", err)
	}
	short := &popsnet.Schedule{Net: sched.Net, Slots: sched.Slots[:len(sched.Slots)-1]}
	if replay(r, short) == nil {
		t.Error("schedule with a dropped slot accepted")
	}
	wrong := *r
	wrong.pi = slices.Clone(r.pi)
	wrong.pi[0], wrong.pi[1] = wrong.pi[1], wrong.pi[0]
	if replay(&wrong, sched) == nil {
		t.Error("schedule replayed against another permutation accepted")
	}
}
