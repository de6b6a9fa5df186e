package expt

import (
	"fmt"
	"math/rand"

	"pops/internal/core"
	"pops/internal/greedy"
	"pops/internal/perms"
)

// E13 charts the congestion crossover between direct routing and Theorem 2's
// two-phase relay routing. Workloads interpolate between fully spread
// demand (random permutations, per-coupler multiplicity ≈ small) and fully
// concentrated demand (group rotation, multiplicity d) by composing a group
// rotation on a fraction of the groups with random traffic on the rest.
// Direct-optimal needs µmax slots; Theorem 2 always needs 2⌈d/g⌉. The
// crossover sits where µmax = 2⌈d/g⌉.
func E13(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Congestion crossover: direct-optimal vs Theorem 2 relay routing",
		Columns: []string{"d", "g", "concentrated groups", "µmax", "direct-optimal", "theorem2", "winner"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range []struct{ d, g int }{{8, 2}, {16, 2}, {16, 4}, {32, 8}} {
		n := s.d * s.g
		fracs := []int{0}
		if s.g >= 4 {
			fracs = append(fracs, s.g/4)
		}
		fracs = append(fracs, s.g/2, s.g)
		for _, frac := range fracs {
			pi, err := mixedCongestion(s.d, s.g, frac, rng)
			if err != nil {
				return nil, err
			}
			direct, err := greedy.DirectOptimal(s.d, s.g, pi)
			if err != nil {
				return nil, err
			}
			relay := core.OptimalSlots(s.d, s.g)
			winner := "direct"
			if relay < direct.Slots {
				winner = "theorem2"
			} else if relay == direct.Slots {
				winner = "tie"
			}
			mu, err := greedy.MaxPairMultiplicity(s.d, s.g, pi)
			if err != nil {
				return nil, err
			}
			// Sanity: the relay router still handles the instance.
			p, err := core.PlanRoute(s.d, s.g, pi, paperOptions)
			if err != nil {
				return nil, err
			}
			if _, err := p.Verify(); err != nil {
				return nil, err
			}
			_ = n
			t.AddRow(s.d, s.g, frac, mu, direct.Slots, relay, winner)
		}
	}
	t.Notes = append(t.Notes,
		"direct routing wins on spread demand; once any coupler carries more than 2⌈d/g⌉ packets, Theorem 2's relays win — by Θ(g) at full concentration")
	return t, nil
}

// mixedCongestion builds a permutation in which the first `concentrated`
// groups send all their packets to a single group (rotated by one), while
// the remaining groups exchange random traffic among themselves.
func mixedCongestion(d, g, concentrated int, rng *rand.Rand) ([]int, error) {
	if concentrated > g {
		concentrated = g
	}
	pi := make([]int, d*g)
	// Concentrated block: groups 0..concentrated-1 rotate among themselves.
	for h := 0; h < concentrated; h++ {
		dst := (h + 1) % concentrated
		if concentrated == 0 {
			break
		}
		if concentrated == 1 {
			dst = h // single group maps to itself
		}
		for i := 0; i < d; i++ {
			pi[h*d+i] = dst*d + i
		}
	}
	// Spread block: random permutation of the remaining processors.
	rest := make([]int, 0, (g-concentrated)*d)
	for p := concentrated * d; p < g*d; p++ {
		rest = append(rest, p)
	}
	shuffled := append([]int(nil), rest...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for i, p := range rest {
		pi[p] = shuffled[i]
	}
	if err := perms.Validate(pi); err != nil {
		return nil, fmt.Errorf("expt: mixedCongestion produced invalid permutation: %w", err)
	}
	return pi, nil
}

// E14 measures the paper's storage remark: with d ≤ g every processor holds
// exactly one packet at every step of the routing; with d > g the verified
// maximum is two (own undelivered packet plus one in transit or delivered).
func E14(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Storage per processor during routing (Theorem 2 remark)",
		Columns: []string{"d", "g", "max held (measured)", "claim"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range []struct{ d, g int }{{2, 2}, {4, 8}, {8, 8}, {8, 4}, {16, 2}, {9, 3}} {
		pi := perms.Random(s.d*s.g, rng)
		p, err := core.PlanRoute(s.d, s.g, pi, paperOptions)
		if err != nil {
			return nil, err
		}
		tr, err := p.Verify()
		if err != nil {
			return nil, err
		}
		max := 0
		for _, m := range tr.MaxHeld {
			if m > max {
				max = m
			}
		}
		claim := "exactly 1 (paper)"
		wantMax := 1
		if s.d > s.g {
			claim = "≤ 3 (own + delivered + relay)"
			wantMax = 3
		}
		if max > wantMax {
			return nil, fmt.Errorf("E14 d=%d g=%d: max held %d exceeds %d", s.d, s.g, max, wantMax)
		}
		t.AddRow(s.d, s.g, max, claim)
	}
	t.Notes = append(t.Notes,
		"for d > g the literal 'exactly one packet' of the paper counts only the routing buffer: a destination can simultaneously hold its not-yet-sent packet, an already-delivered packet (retained by the simulator), and one packet in transit — at most one of which is in the relay buffer, matching the paper's intent")
	return t, nil
}
