// Package pops is the public API of the POPS permutation-routing library, a
// full reproduction of Mei & Rizzi, "Routing Permutations in Partitioned
// Optical Passive Stars Networks" (IPPS 2002).
//
// A POPS(d, g) network connects n = d·g processors, partitioned into g
// groups of d, through g² optical passive star couplers. The central result
// (Theorem 2) is that any permutation π of the n processors can be routed in
// one slot when d = 1 and 2·⌈d/g⌉ slots when d > 1 — worst-case optimal,
// and within a factor two of optimal for every fixed-point-free permutation.
//
// Quick start — hold a Planner per network shape and Execute workloads on
// it:
//
//	p, err := pops.NewPlanner(8, 8)  // POPS(8,8), n = 64
//	pi := pops.RandomPermutation(64, rng)
//	plan, err := p.Execute(ctx, pops.Permutation(pi))
//	// plan.SlotCount() == 2 == pops.OptimalSlots(8, 8)
//	trace, err := plan.Verify()      // replay on the slot-level simulator
//
// Workloads are the unit of planning: Permutation(pi) is the paper's
// Theorem 2 problem, HRelation(reqs) its h-relation generalization,
// AllToAll() the complete exchange, and OneToAll(speaker) the one-slot
// broadcast. All four run through the same pair of context-aware methods —
// Planner.Execute for a finished *Plan, Planner.ExecuteStream for slot
// fragments delivered while the König factorization is still peeling later
// factors (time-to-first-slot is a small fraction of the full planning
// latency). Cancelling the context stops planning between factors and
// returns the pooled worker.
//
// Every routing strategy — Theorem 2 (TheoremTwo), the greedy and optimal
// direct baselines (Greedy, DirectOptimal), the Gravenstreter–Melhem
// single-slot router (SingleSlot), and the per-permutation strategy selector
// (Auto) — implements the Router interface and returns the unified *Plan,
// whose Strategy field records the producer:
//
//	r, err := pops.NewAuto(8, 8)
//	plan, err := r.Route(pi) // plan.Strategy == "singleslot" | "direct-optimal" | "theorem2"
//
// Behavior is configured with functional options (WithAlgorithm, WithVerify,
// WithParallelism). For planning batches of permutations, RouteBatch fans
// a bounded worker pool over the planner's pooled per-worker arenas:
//
//	p, err := pops.NewPlanner(8, 8, pops.WithParallelism(4))
//	plans, err := p.RouteBatch(pis) // order-stable, bounded worker pool
//
// WithPlanCache adds a workload-fingerprint plan cache to a Planner, and the
// same planning surface is served over HTTP by cmd/popsserved (sharded per
// network shape, micro-batched); ServiceClient is its Go client
// (Execute/ExecuteStream mirror the Planner methods over the wire, with
// POST /route/stream flushing slot records as chunked NDJSON).
//
// The facade additionally re-exports the building blocks: the slot-level
// network simulator (Network, Schedule, Run), the Theorem 1 machinery (fair
// distributions via balanced bipartite edge coloring), permutation families
// from the related literature (BPC, mesh shifts, hypercube exchanges,
// reversal, transpose), and the lower bounds of Propositions 1–3.
package pops

import (
	"math/rand"

	"pops/internal/bounds"
	"pops/internal/core"
	"pops/internal/edgecolor"
	"pops/internal/perms"
	"pops/internal/popsnet"
	"pops/internal/singleslot"
)

// Algorithm selects the bipartite edge-coloring backend used by the planner
// (the computational bottleneck named in Remark 1 of the paper).
type Algorithm = edgecolor.Algorithm

// Available coloring backends.
const (
	// RepeatedMatching extracts perfect matchings with Hopcroft–Karp
	// (the default: it is the Algorithm zero value).
	RepeatedMatching = edgecolor.RepeatedMatching
	// EulerSplitDC is the near-linear Euler-split divide and conquer.
	EulerSplitDC = edgecolor.EulerSplitDC
	// Insertion is the O(n·m) alternating-path König coloring.
	Insertion = edgecolor.Insertion
)

// Options configures the planner.
type Options = core.Options

// PlanObserver receives one observation per planned workload: resolved
// strategy, cache verdict, and measured planning time. Install one with
// WithPlanObserver; the routing service uses it to feed the per-(d, g,
// strategy) plan-time telemetry behind /stats and /metrics.
type PlanObserver = core.PlanObserver

// Plan is a verified-constructible routing plan; see Planner.Execute.
type Plan = core.Plan

// Network describes a POPS(d, g) network shape.
type Network = popsnet.Network

// Schedule is a sequence of communication slots on a network.
type Schedule = popsnet.Schedule

// Trace records per-slot statistics of a simulated execution.
type Trace = popsnet.Trace

// NewNetwork validates a POPS(d, g) shape.
func NewNetwork(d, g int) (Network, error) { return popsnet.NewNetwork(d, g) }

// OptimalSlots returns Theorem 2's slot count: 1 when d = 1, else 2⌈d/g⌉.
func OptimalSlots(d, g int) int { return core.OptimalSlots(d, g) }

// LowerBound returns the strongest applicable lower bound of Propositions
// 1–3 on the slots needed to route pi on POPS(d, g), with the name of the
// proposition supplying it ("Prop1", "Prop2", "Prop3", or "none").
func LowerBound(d, g int, pi []int) (int, string, error) {
	return bounds.LowerBound(d, g, pi)
}

// Run replays a schedule on the slot-level simulator from the canonical
// initial state (packet p at processor p).
func Run(s *Schedule) (*Trace, error) {
	_, tr, err := popsnet.Run(s)
	return tr, err
}

// IsOneSlotRoutable reports the Gravenstreter–Melhem characterization:
// whether pi routes in a single slot on POPS(d, g).
func IsOneSlotRoutable(d, g int, pi []int) (bool, error) {
	return singleslot.IsRoutable(d, g, pi)
}

// Request is one packet demand of an h-relation: move a packet from Src to
// Dst. Processors may appear in up to h requests as source and up to h as
// destination.
type Request = core.Request

// HRelationSlots returns the slot cost of an h-relation plan for degree h:
// h · OptimalSlots(d, g).
func HRelationSlots(d, g, h int) int { return core.PredictedHRelationSlots(d, g, h) }

// Permutation utilities and families (package perms).

// ValidatePermutation checks that pi is a permutation of {0,…,len(pi)−1}.
func ValidatePermutation(pi []int) error { return perms.Validate(pi) }

// PermutationFingerprint returns the 64-bit content fingerprint of pi used
// as the key of the Planner's plan cache (WithPlanCache) and of the serving
// layer's request coalescing. Equal permutations always fingerprint
// identically; distinct ones collide with probability ~2⁻⁶⁴, so cache
// layers verify equality on every hit before trusting a stored plan.
func PermutationFingerprint(pi []int) uint64 { return perms.Fingerprint(pi) }

// IdentityPermutation returns the identity on n elements.
func IdentityPermutation(n int) []int { return perms.Identity(n) }

// RandomPermutation returns a uniformly random permutation.
func RandomPermutation(n int, rng *rand.Rand) []int { return perms.Random(n, rng) }

// RandomDerangement returns a random fixed-point-free permutation (n ≥ 2).
func RandomDerangement(n int, rng *rand.Rand) []int { return perms.RandomDerangement(n, rng) }

// VectorReversal returns π(i) = n−1−i.
func VectorReversal(n int) []int { return perms.VectorReversal(n) }

// Transpose returns the r×c matrix transpose permutation.
func Transpose(r, c int) []int { return perms.Transpose(r, c) }

// MeshShift returns the torus shift permutation of an rows×cols mesh.
func MeshShift(rows, cols, dr, dc int) ([]int, error) { return perms.MeshShift(rows, cols, dr, dc) }

// GroupRotation maps every packet of group h to group (h+shift) mod g — the
// adversarial instance for direct routing.
func GroupRotation(d, g, shift int) ([]int, error) { return perms.GroupRotation(d, g, shift) }

// BPC is a bit-permute-complement permutation (Sahni 2000a).
type BPC = perms.BPC

// NewBPC builds a BPC permutation descriptor.
func NewBPC(bits int, bitPerm []int, complement uint64) (*BPC, error) {
	return perms.NewBPC(bits, bitPerm, complement)
}

// HypercubeExchange returns the BPC π(i) = i ⊕ 2^bit.
func HypercubeExchange(bits, bit int) (*BPC, error) { return perms.HypercubeExchange(bits, bit) }

// BitReversal returns the bit-reversal BPC permutation.
func BitReversal(bits int) (*BPC, error) { return perms.BitReversal(bits) }
