package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pops"
	"pops/internal/strategy"
)

func TestBuildPermutationExplicit(t *testing.T) {
	nw, err := pops.NewNetwork(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := buildPermutation(nw, "4,8,3,6,0,2,7,1,5", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pi[0] != 4 || pi[8] != 5 {
		t.Fatalf("parsed permutation = %v", pi)
	}
}

func TestBuildPermutationRejectsBadSpecs(t *testing.T) {
	nw, err := pops.NewNetwork(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{"1,2", "0,1,2,x", "0,0,1,1", "0,1,2,9"}
	for _, spec := range cases {
		if _, err := buildPermutation(nw, spec, "", 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestBuildPermutationFamilies(t *testing.T) {
	nw, err := pops.NewNetwork(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"", "random", "derangement", "reversal", "rotation", "transpose", "identity"} {
		pi, err := buildPermutation(nw, "", fam, 7)
		if err != nil {
			t.Fatalf("family %q: %v", fam, err)
		}
		if err := pops.ValidatePermutation(pi); err != nil {
			t.Fatalf("family %q: %v", fam, err)
		}
	}
	if _, err := buildPermutation(nw, "", "nonsense", 1); err == nil {
		t.Fatal("unknown family accepted")
	}
	// Transpose on a non-square processor count.
	nw2, err := pops.NewNetwork(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildPermutation(nw2, "", "transpose", 1); err == nil {
		t.Fatal("transpose accepted non-square n")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Figure 3 instance, with and without schedule printing.
	if err := run(3, 3, "", "4,8,3,6,0,2,7,1,5", "", pops.StrategyTheoremTwo, 0, 1, false, true, true); err != nil {
		t.Fatal(err)
	}
	if err := run(2, 4, "", "", "reversal", pops.StrategyTheoremTwo, 0, 1, false, false, true); err != nil {
		t.Fatal(err)
	}
	if err := run(3, 3, "", "", "", pops.StrategyTheoremTwo, 0, 1, true, false, false); err != nil {
		t.Fatal(err)
	}
	if err := run(0, 3, "", "", "", pops.StrategyTheoremTwo, 0, 1, false, false, false); err == nil {
		t.Fatal("invalid shape accepted")
	}
}

func TestRunWorkloads(t *testing.T) {
	// The non-permutation workloads of the Execute surface: the complete
	// exchange and the broadcast, both planned and verified end to end.
	if err := run(2, 2, "all-to-all", "", "", "", 0, 1, false, false, true); err != nil {
		t.Fatal(err)
	}
	if err := run(3, 3, "one-to-all", "", "", "", 4, 1, false, true, false); err != nil {
		t.Fatal(err)
	}
	if err := run(3, 3, "gossip", "", "", "", 0, 1, false, false, false); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := run(3, 3, "one-to-all", "", "", "", 99, 1, false, false, false); err == nil {
		t.Fatal("out-of-range speaker accepted")
	}
}

func TestRunEveryStrategy(t *testing.T) {
	// Transpose on POPS(16,4): single-slot fails (not routable), every other
	// strategy plans and verifies; auto must pick the direct-optimal route.
	for _, name := range strategy.Names {
		err := run(16, 4, "", "", "transpose", name, 0, 1, false, false, false)
		if name == "singleslot" {
			if err == nil {
				t.Fatal("singleslot accepted a non-single-slot-routable permutation")
			}
			continue
		}
		if err != nil {
			t.Fatalf("strategy %s: %v", name, err)
		}
	}
	if err := run(2, 2, "", "", "", "warp-drive", 0, 1, false, false, false); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// runGoldenPath holds run's stdout for the cases of TestRunGolden, each
// headed by the equivalent command line.
const runGoldenPath = "testdata/run_golden.txt"

// TestRunGolden pins popsroute's output byte for byte: the default strategy
// on the paper's Figure 3 permutation with its schedule and statistics, and
// -strategy auto and -strategy direct on the POPS(16,4) transpose, whose
// comparison block lists every strategy, singleslot's "n/a (…)" line
// included. If the change is intended, regenerate with REGEN_GOLDEN=1 go
// test -run TestRunGolden ./cmd/popsroute.
func TestRunGolden(t *testing.T) {
	cases := []struct {
		cmd                    string
		d, g                   int
		perm, family, strategy string
		schedule, stats        bool
	}{
		{"-d 3 -g 3 -perm 4,8,3,6,0,2,7,1,5 -schedule -stats", 3, 3, "4,8,3,6,0,2,7,1,5", "", "theorem2", true, true},
		{"-d 16 -g 4 -family transpose -strategy auto", 16, 4, "", "transpose", "auto", false, false},
		{"-d 16 -g 4 -family transpose -strategy direct", 16, 4, "", "transpose", "direct", false, false},
	}
	var got bytes.Buffer
	for _, c := range cases {
		fmt.Fprintf(&got, "== popsroute %s\n", c.cmd)
		out, err := captureStdout(t, func() error {
			return run(c.d, c.g, "", c.perm, c.family, c.strategy, 0, 1, false, c.schedule, c.stats)
		})
		if err != nil {
			t.Fatalf("%s: %v", c.cmd, err)
		}
		got.Write(out)
	}
	if os.Getenv("REGEN_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(runGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(runGoldenPath)
	if err != nil {
		t.Fatalf("read golden (REGEN_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("popsroute output differs from %s:\n got:\n%s\nwant:\n%s", runGoldenPath, got.Bytes(), want)
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what f printed.
func captureStdout(t *testing.T, f func() error) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out := <-read
	r.Close()
	return out, ferr
}
