package core

import (
	"bytes"
	"strings"
	"testing"

	"pops/internal/edgecolor"
)

// TestFigure3GoldenSchedule pins the exact schedule produced for the paper's
// Figure 3 instance with the RepeatedMatching backend, the planner default
// when the golden was recorded. The golden text documents the
// two-phase structure: slot 0 spreads each group's packets across distinct
// intermediate groups (the right-hand side of the figure), slot 1 delivers.
// A change in this output means the planner's deterministic behaviour
// changed — review it deliberately before updating the golden text.
func TestFigure3GoldenSchedule(t *testing.T) {
	p, err := PlanRoute(3, 3, figure3Perm, Options{Algorithm: edgecolor.RepeatedMatching})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Schedule().Format(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	const golden = `slot 0:
  proc   0 sends packet   0 on c(0,0)
  proc   3 sends packet   3 on c(0,1)
  proc   7 sends packet   7 on c(0,2)
  proc   1 sends packet   1 on c(1,0)
  proc   4 sends packet   4 on c(1,1)
  proc   8 sends packet   8 on c(1,2)
  proc   2 sends packet   2 on c(2,0)
  proc   5 sends packet   5 on c(2,1)
  proc   6 sends packet   6 on c(2,2)
  proc   0 reads c(0,0)
  proc   1 reads c(0,1)
  proc   2 reads c(0,2)
  proc   3 reads c(1,0)
  proc   4 reads c(1,1)
  proc   5 reads c(1,2)
  proc   6 reads c(2,0)
  proc   7 reads c(2,1)
  proc   8 reads c(2,2)
slot 1:
  proc   0 sends packet   0 on c(1,0)
  proc   1 sends packet   3 on c(2,0)
  proc   2 sends packet   7 on c(0,0)
  proc   3 sends packet   1 on c(2,1)
  proc   4 sends packet   4 on c(0,1)
  proc   5 sends packet   8 on c(1,1)
  proc   6 sends packet   2 on c(1,2)
  proc   7 sends packet   5 on c(0,2)
  proc   8 sends packet   6 on c(2,2)
  proc   4 reads c(1,0)
  proc   6 reads c(2,0)
  proc   1 reads c(0,0)
  proc   8 reads c(2,1)
  proc   0 reads c(0,1)
  proc   5 reads c(1,1)
  proc   3 reads c(1,2)
  proc   2 reads c(0,2)
  proc   7 reads c(2,2)
`
	if got != golden {
		t.Fatalf("Figure 3 schedule changed.\ngot:\n%s\nwant:\n%s\nfirst difference near %q",
			got, golden, firstDiff(got, golden))
	}
}

func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return la[i] + " vs " + lb[i]
		}
	}
	return "length mismatch"
}
