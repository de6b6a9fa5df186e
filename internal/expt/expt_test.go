package expt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestE1(t *testing.T) {
	tab, err := E1(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("E1 produced no rows")
	}
	for _, row := range tab.Rows {
		if row[5] != "yes" {
			t.Fatalf("E1 row not verified: %v", row)
		}
	}
}

func TestE2(t *testing.T) {
	tab, err := E2(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[3] != "yes" {
			t.Fatalf("E2 fair distribution not one-slot routable: %v", row)
		}
	}
}

func TestE3GoldenFigure(t *testing.T) {
	tab, err := E3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("E3 rows = %d, want 9", len(tab.Rows))
	}
	// Destination "xy" encoding of the figure for packet 0: dest 4 = group 1,
	// processor 4 → "14".
	if tab.Rows[0][1] != "14" {
		t.Fatalf("E3 packet 0 dest = %s, want 14", tab.Rows[0][1])
	}
}

func TestE4ThroughE7(t *testing.T) {
	if _, err := E4(3, 2); err != nil {
		t.Fatal(err)
	}
	tab5, err := E5()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab5.Rows {
		if row[5] != "yes" {
			t.Fatalf("E5 instance not optimal: %v", row)
		}
	}
	if _, err := E6(); err != nil {
		t.Fatal(err)
	}
	tab7, err := E7(4)
	if err != nil {
		t.Fatal(err)
	}
	// Group rotation rows must show greedy ≥ theorem2.
	for _, row := range tab7.Rows {
		if row[0] == "group-rotation" && row[6] == "yes" {
			t.Fatalf("adversarial instance claimed single-slot routable: %v", row)
		}
	}
}

func TestE8(t *testing.T) {
	tab, err := E8(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("E8 rows = %d, want 6 (3 mappings × 2 machines)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[8] != "yes" {
			t.Fatalf("E8 incorrect computation: %v", row)
		}
	}
}

func TestE9(t *testing.T) {
	tab, err := E9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("E9 produced no rows")
	}
}

func TestE10SmallSizes(t *testing.T) {
	tab, err := E10(6, []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("E10 rows = %d, want 6 (2 sizes × 3 algorithms)", len(tab.Rows))
	}
}

func TestE12(t *testing.T) {
	tab, err := E12(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[6] != "yes" {
			t.Fatalf("E12 application cost mismatch: %v", row)
		}
	}
}

func TestEF(t *testing.T) {
	tab, err := EF()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[4] != "yes" || row[5] != "yes" {
			t.Fatalf("topology invariant failed: %v", row)
		}
	}
}

func TestE16RouterTable(t *testing.T) {
	tab, err := E16(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		switch row[0] {
		case "staircase":
			if row[8] != "singleslot" {
				t.Fatalf("E16 auto picked %s for staircase, want singleslot: %v", row[8], row)
			}
		case "transpose":
			if row[8] != "direct-optimal" {
				t.Fatalf("E16 auto picked %s for transpose, want direct-optimal: %v", row[8], row)
			}
		case "group-rotation":
			if row[8] != "theorem2" {
				t.Fatalf("E16 auto picked %s for group-rotation, want theorem2: %v", row[8], row)
			}
		}
	}
}

func TestRenderFormats(t *testing.T) {
	tab := &Table{
		ID:      "T",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow(true, "x")

	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T: demo", "2.50", "yes", "a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := tab.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	md := buf.String()
	for _, want := range []string{"### T — demo", "| a | bb |", "| --- | --- |", "*a note*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("Markdown output missing %q:\n%s", want, md)
		}
	}
}

func TestE13CrossoverShowsBothWinners(t *testing.T) {
	tab, err := E13(1)
	if err != nil {
		t.Fatal(err)
	}
	winners := make(map[string]bool)
	for _, row := range tab.Rows {
		winners[row[6]] = true
	}
	if !winners["direct"] || !winners["theorem2"] {
		t.Fatalf("crossover not demonstrated: winners = %v", winners)
	}
}

func TestE14StorageBounds(t *testing.T) {
	tab, err := E14(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[3] == "exactly 1 (paper)" && row[2] != "1" {
			t.Fatalf("d<=g row with max held %s", row[2])
		}
	}
}

// experimentsGoldenPath holds the rendered output of All(1), the paper
// reproduction `popsexp -e all` prints, with every timing cell masked.
const experimentsGoldenPath = "testdata/experiments_golden.txt"

// TestExperimentsGolden pins the reproduction: every table of All(1) must
// render byte for byte as recorded, except the wall-clock cells a Table
// marks in Timing, which are masked. A change to a slot count, a relay group
// or a strategy's choice fails it. If the change is intended, regenerate
// with REGEN_GOLDEN=1 go test -run TestExperimentsGolden ./internal/expt and
// say in CHANGES.md why the reproduction moved.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("All() includes timing sweeps; skipped in -short")
	}
	tables, err := All(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 17 {
		t.Fatalf("All returned %d tables, want 17", len(tables))
	}
	seen := make(map[string]bool)
	var buf bytes.Buffer
	for _, tab := range tables {
		if seen[tab.ID] {
			t.Fatalf("duplicate table %s", tab.ID)
		}
		seen[tab.ID] = true
		if len(tab.Rows) == 0 {
			t.Fatalf("table %s has no rows", tab.ID)
		}
		for _, row := range tab.Rows {
			for _, c := range tab.Timing {
				row[c] = "<time>"
			}
		}
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if os.Getenv("REGEN_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(experimentsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentsGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(experimentsGoldenPath)
	if err != nil {
		t.Fatalf("read golden (REGEN_GOLDEN=1 to regenerate): %v", err)
	}
	got := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %q\nwant: %q\n(REGEN_GOLDEN=1 regenerates it if the change is intended)",
				experimentsGoldenPath, i+1, g, w)
		}
	}
}
