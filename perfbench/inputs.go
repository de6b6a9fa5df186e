package main

import (
	"fmt"
	"math/rand"
	"time"

	"pops"
)

// Request classes. The mixed-open workload reports a latency median per
// class; the single-class workloads use one each.
const (
	classHit    = "hit"    // recurring (8,8) permutation, answered from the plan cache
	classCold   = "cold"   // unique permutation, planned on every request
	classStream = "stream" // unique h-relation streamed over the binary codec
	classFaulty = "faulty" // unique (8,8) permutation around one dead coupler
	classNDJSON = "ndjson" // unique (8,8) permutation streamed over NDJSON
)

var mixedClasses = []string{classHit, classCold, classStream, classFaulty, classNDJSON}

// request is one pre-generated input with the answer it must get.
type request struct {
	class  string
	d, g   int
	w      pops.Workload
	stream bool // /route/stream instead of /route
	ndjson bool // JSON/NDJSON codec instead of the default binary one
	slots  int  // expected slot count
	fp     string

	// The workload's content, for replaying a fetched schedule.
	pi     []int
	reqs   []pops.Request
	faults *pops.FaultSet
}

func newPerm(class string, d, g int, pi []int) *request {
	w := pops.Permutation(pi)
	return &request{class: class, d: d, g: g, w: w, pi: pi,
		slots: pops.OptimalSlots(d, g), fp: fingerprint(w)}
}

// newHRelation builds an h-regular relation as the union of h seeded
// permutations, so every processor sends and receives exactly h packets.
func newHRelation(rng *rand.Rand, d, g, h int) *request {
	n := d * g
	reqs := make([]pops.Request, 0, h*n)
	for k := 0; k < h; k++ {
		for s, t := range pops.RandomPermutation(n, rng) {
			reqs = append(reqs, pops.Request{Src: s, Dst: t})
		}
	}
	w := pops.HRelation(reqs)
	return &request{class: classStream, d: d, g: g, w: w, reqs: reqs, stream: true,
		slots: pops.HRelationSlots(d, g, h), fp: fingerprint(w)}
}

// newFaulty builds a permutation on POPS(d, g) with one dead coupler. The
// degraded slot count depends on the fault, so it is taken from a local
// plan of the same workload.
func newFaulty(rng *rand.Rand, pl *pops.Planner, d, g int) (*request, error) {
	pi := pops.RandomPermutation(d*g, rng)
	fs := pops.FaultSet{Couplers: []pops.Coupler{{B: rng.Intn(g), A: rng.Intn(g)}}}
	w := pops.FaultyPermutation(pi, fs)
	plan, err := pl.Execute(bg, w)
	if err != nil {
		return nil, fmt.Errorf("plan faulty input locally: %w", err)
	}
	return &request{class: classFaulty, d: d, g: g, w: w, pi: pi, faults: &fs,
		slots: plan.SlotCount(), fp: fingerprint(w)}, nil
}

// newOfClass makes one input of a mixed-open request class; pl plans fault
// inputs locally for their expected slot count.
func newOfClass(rng *rand.Rand, pl *pops.Planner, class string) (*request, error) {
	switch class {
	case classCold:
		return newPerm(class, mixedColdD, mixedColdG, pops.RandomPermutation(mixedColdD*mixedColdG, rng)), nil
	case classStream:
		return newHRelation(rng, streamD, streamG, streamH), nil
	case classFaulty:
		return newFaulty(rng, pl, warmD, warmG)
	case classNDJSON:
		r := newPerm(class, warmD, warmG, pops.RandomPermutation(warmD*warmG, rng))
		r.stream, r.ndjson = true, true
		return r, nil
	default:
		return newPerm(classHit, warmD, warmG, pops.RandomPermutation(warmD*warmG, rng)), nil
	}
}

func fingerprint(w pops.Workload) string {
	return fmt.Sprintf("%016x", pops.WorkloadFingerprint(w))
}

// arrival is one open-loop send: the request and when it is due, relative
// to the start of the timed phase.
type arrival struct {
	at  time.Duration
	req *request
}

// inputs is everything a workload sends, generated from the seed before
// any timing starts.
type inputs struct {
	fill   []*request // set-up: brings the plan caches to their timed-phase state
	seq    []*request // closed loop: cycled by each client from its own offset
	arr    []arrival  // open loop: the seeded arrival schedule
	ladder []*request // inputs the layer ladder times
	sample []*request // replayed on the simulator after timing
	// probe holds a few requests of every mixed-open class, sent one at a
	// time by the ladder to price each class in isolation.
	probe map[string][]*request
}

// spec is one benchmark workload.
type spec struct {
	name      string
	clients   int     // client goroutines and connections
	rate      float64 // open-loop arrivals per second; 0 runs a closed loop
	backends  int     // more than one puts the cluster proxy in front
	cacheSize int     // per-shard plan cache capacity; 0 keeps the default 1024
	gen       func(rng *rand.Rand, seconds float64) (*inputs, error)
}

// Shapes. Each workload uses fixed shapes, never sampled ones: a median
// over a random mix of shapes falls between their modes.
const (
	warmD, warmG     = 8, 8
	coldD, coldG     = 16, 64 // d < g: the coloring engine dominates
	streamD, streamG = 16, 16
	streamH          = 4
	mixedColdD       = 32
	mixedColdG       = 32
)

// Cache sizes below the default keep set-up short while still leaving the
// cache full and evicting, as it is while timing; BENCHMARK.json records
// them.
const (
	coldCache   = 64
	streamCache = 128
	mixedCache  = 64
	// mixedRate is the open-loop arrival rate, well below the mix's
	// closed-loop capacity on one P (about 570/s) so queues stay short.
	mixedRate = 200.0
)

// specs lists every workload. BENCHMARK.json gates on all but mixed-open,
// whose open-loop latency follows hypervisor steal too closely to hold a
// bound on a shared VM (see README.md); it runs by hand and in the
// self-test.
var specs = []*spec{
	{name: "warm-perm", clients: 2, backends: 1, gen: genWarm},
	{name: "cold-perm", clients: 1, backends: 1, cacheSize: coldCache, gen: genCold},
	{name: "stream-hrel", clients: 1, backends: 1, cacheSize: streamCache, gen: genStream},
	{name: "mixed-open", clients: 2, rate: mixedRate, backends: 2, cacheSize: mixedCache, gen: genMixed},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

const (
	ladderN = 40 // inputs per ladder rung
	probeN  = 16 // class-probe requests per class
	sampleN = 8  // answers replayed on the simulator per run
)

// ring returns k unique inputs made by mk. Cycling through more inputs
// than the plan cache holds makes every request a miss, while the cache
// stays full and evicting.
func ring(k int, mk func() *request) []*request {
	out := make([]*request, k)
	for i := range out {
		out[i] = mk()
	}
	return out
}

// tail returns the last n entries of rs: the set-up fill for a ring cycled
// from its start, so the fill leaves the cache holding the entries the
// timed phase reaches last.
func tail(rs []*request, n int) []*request { return rs[len(rs)-n:] }

func pickSample(rng *rand.Rand, rs []*request) []*request {
	out := make([]*request, 0, sampleN)
	for _, i := range rng.Perm(len(rs))[:min(sampleN, len(rs))] {
		out = append(out, rs[i])
	}
	return out
}

func genWarm(rng *rand.Rand, _ float64) (*inputs, error) {
	const pool = 256 // fits the default cache: every timed request hits
	in := &inputs{}
	in.fill = ring(pool, func() *request {
		return newPerm(classHit, warmD, warmG, pops.RandomPermutation(warmD*warmG, rng))
	})
	in.seq = make([]*request, pool)
	for i, j := range rng.Perm(pool) {
		in.seq[i] = in.fill[j]
	}
	in.ladder = in.fill[:ladderN]
	in.sample = pickSample(rng, in.fill)
	var err error
	in.probe, err = probeSet(rng, probeN)
	return in, err
}

func genCold(rng *rand.Rand, _ float64) (*inputs, error) {
	in := &inputs{}
	in.seq = ring(8*coldCache, func() *request {
		return newPerm(classCold, coldD, coldG, pops.RandomPermutation(coldD*coldG, rng))
	})
	in.fill = tail(in.seq, coldCache+coldCache/4)
	in.ladder = ring(ladderN, func() *request {
		return newPerm(classCold, coldD, coldG, pops.RandomPermutation(coldD*coldG, rng))
	})
	in.sample = pickSample(rng, in.seq)
	var err error
	in.probe, err = probeSet(rng, probeN)
	return in, err
}

func genStream(rng *rand.Rand, _ float64) (*inputs, error) {
	in := &inputs{}
	in.seq = ring(4*streamCache, func() *request { return newHRelation(rng, streamD, streamG, streamH) })
	in.fill = tail(in.seq, streamCache+streamCache/4)
	in.ladder = ring(ladderN, func() *request { return newHRelation(rng, streamD, streamG, streamH) })
	in.sample = pickSample(rng, in.seq)
	var err error
	in.probe, err = probeSet(rng, probeN)
	return in, err
}

// mixedDeck fixes the class shares of mixed-open: every block of 20
// arrivals is a seeded shuffle of these counts, so each seed sends the
// same share of every class.
var mixedDeck = map[string]int{classHit: 8, classCold: 4, classStream: 4, classFaulty: 2, classNDJSON: 2}

func genMixed(rng *rand.Rand, seconds float64) (*inputs, error) {
	const hitPool = 64
	// Each unique ring is longer than the fill plus every arrival of its
	// class, so no timed request repeats one the fill cached.
	arrivals := int(mixedRate*seconds) + 1
	perBlock := 0
	for _, k := range mixedDeck {
		perBlock += k
	}
	need := func(class string) int {
		return arrivals*mixedDeck[class]/perBlock + 3*mixedCache + ladderN + 64
	}
	fp, err := pops.NewPlanner(warmD, warmG)
	if err != nil {
		return nil, err
	}
	pools := map[string][]*request{}
	for _, c := range mixedClasses {
		n := need(c)
		if c == classHit {
			n = hitPool
		}
		for i := 0; i < n; i++ {
			r, err := newOfClass(rng, fp, c)
			if err != nil {
				return nil, err
			}
			pools[c] = append(pools[c], r)
		}
	}

	in := &inputs{probe: map[string][]*request{classHit: pools[classHit][:probeN]}}
	// Fill: the recurring pool, then enough unique inputs of every class to
	// leave both backends' caches full and evicting. The fill and ladder
	// inputs come from the end of each ring; arrivals take it from the start.
	in.fill = append(in.fill, pools[classHit]...)
	for _, c := range mixedClasses[1:] {
		p := pools[c]
		in.fill = append(in.fill, p[len(p)-ladderN-(5*mixedCache)/2:len(p)-ladderN]...)
		in.probe[c] = p[len(p)-probeN:]
	}
	// The planner layers are laddered on the cold class, the one that
	// plans on every request.
	in.ladder = pools[classCold][len(pools[classCold])-ladderN:]
	next := map[string]int{}
	deck := make([]string, 0, perBlock)
	for _, c := range mixedClasses {
		for k := 0; k < mixedDeck[c]; k++ {
			deck = append(deck, c)
		}
	}
	var at time.Duration
	for len(in.arr) < arrivals {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, c := range deck {
			at += time.Duration(rng.ExpFloat64() / mixedRate * float64(time.Second))
			p := pools[c]
			in.arr = append(in.arr, arrival{at: at, req: p[next[c]%len(p)]})
			next[c]++
		}
	}
	in.arr = in.arr[:arrivals]
	for _, c := range mixedClasses {
		sent := pickSample(rng, pools[c][:min(next[c], len(pools[c]))])
		in.sample = append(in.sample, sent[:min(2, len(sent))]...)
	}
	return in, nil
}
