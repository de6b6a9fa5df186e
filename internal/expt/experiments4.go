package expt

import (
	"context"
	"fmt"
	"math/rand"

	"pops/internal/core"
	"pops/internal/perms"
)

// E15 extends the paper's closing generalization claim to h-relations:
// decompose into h permutations (König on the request multigraph), route
// each with Theorem 2, pay h·2⌈d/g⌉ slots, and compare with the counting
// lower bound ⌈h·d/g⌉ for saturated derangement relations.
func E15(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Extension: h-relation routing via repeated Theorem 2",
		Columns: []string{"d", "g", "h", "requests", "slots", "h·2⌈d/g⌉", "counting lower ⌈hd/g⌉", "verified"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range []struct{ d, g, h int }{
		{2, 2, 1}, {2, 2, 4}, {4, 4, 2}, {4, 4, 8}, {8, 2, 2}, {3, 6, 3}, {1, 8, 4},
	} {
		n := s.d * s.g
		var reqs []core.Request
		for k := 0; k < s.h; k++ {
			var pi []int
			if n >= 2 {
				pi = perms.RandomDerangement(n, rng)
			} else {
				pi = perms.Identity(n)
			}
			for i, v := range pi {
				reqs = append(reqs, core.Request{Src: i, Dst: v})
			}
		}
		pl, err := core.NewPlanner(s.d, s.g, core.Options{})
		if err != nil {
			return nil, err
		}
		p, err := pl.PlanHRelation(context.Background(), reqs)
		if err != nil {
			return nil, err
		}
		if _, err := p.Verify(); err != nil {
			return nil, fmt.Errorf("E15 d=%d g=%d h=%d: %w", s.d, s.g, s.h, err)
		}
		lower := (s.h*s.d + s.g - 1) / s.g
		t.AddRow(s.d, s.g, s.h, len(reqs), p.SlotCount(),
			core.PredictedHRelationSlots(s.d, s.g, s.h), lower, true)
	}
	t.Notes = append(t.Notes,
		"within factor 2 of the counting bound for d ≥ g, mirroring the paper's h = 1 guarantee; the padding handles sparse and unbalanced relations too")
	return t, nil
}
