// Command perfbench is the repository benchmark: it starts the routing
// service (and, for mixed-open, the cluster proxy over two backends)
// in-process on loopback, drives one workload from seeded inputs, checks
// every answer, and prints the metrics as one JSON object on the last line
// of standard output.
//
//	perfbench --workload warm-perm --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the layer ladder
// and a traced timed phase and prints the per-layer metrics. A human
// readable report goes to standard error. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"
)

var bg = context.Background()

// setupReps is how many times a run sets the stack up; setup_s is their
// median.
const setupReps = 3

// procs is the GOMAXPROCS of a run. The stack and its clients share one P:
// on a small VM whose vCPUs the hypervisor deschedules at random, work spread
// over two Ps waits on whichever vCPU was taken away (a parallel planner's
// slowest worker, a lock holder), which makes closed-loop throughput follow
// the host's steal. On one P the kernel can run the process on whichever
// vCPU is running.
const procs = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: warm-perm, cold-perm, stream-hrel or mixed-open")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the layer ladder and prints per-layer metrics")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	sp := specByName(*workload)
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(sp *spec, seed int64, dur time.Duration, trace bool) (*result, error) {
	in, err := sp.gen(rand.New(rand.NewSource(seed)), dur.Seconds())
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	if trace {
		return runTraced(sp, in, dur)
	}
	setup, st, err := setUp(sp, in, nil, setupReps)
	if err != nil {
		return nil, err
	}
	defer st.close()
	ph := st.run(bg, sp, in, dur)
	ok, failed, firstErr := ph.tally()
	vAttempted, vFailed, vErr := st.verifyAll(in.sample)
	res := &result{Attempted: len(ph.samples) + vAttempted, Failed: failed + vFailed}
	res.Correct = res.Failed == 0
	if len(ok) == 0 {
		return nil, fmt.Errorf("no request succeeded (first error: %v)", firstErr)
	}
	l, t := lats(ok), ttfss(ok)
	res.Metrics = map[string]metric{
		"setup_s":        {setup, "s"},
		"latency_p50_ms": {median(l), "ms"},
		"ttfs_p50_ms":    {median(t), "ms"},
		"throughput_rps": {float64(len(ok)) / ph.wall.Seconds(), "1/s"},
		"cpu_ms_per_req": {ms(ph.env1.cpu-ph.env0.cpu) / float64(len(ok)), "ms"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
	report(sp, res, ph, len(ok), firstErr, vErr)
	return res, nil
}

// setUp starts the workload's stack reps times, each time filling the plan
// caches to their timed-phase state, and returns the median set-up time
// with the last stack, still running.
func setUp(sp *spec, in *inputs, obs *observer, reps int) (float64, *stack, error) {
	cfg := stackConfig{backends: sp.backends, cacheSize: sp.cacheSize, conns: sp.clients}
	if obs != nil {
		cfg.observer = obs
	}
	var times []float64
	var st *stack
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
			settle()
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(cfg); err != nil {
			return 0, nil, err
		}
		if err := st.fill(bg, in.fill); err != nil {
			st.close()
			return 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	slices.Sort(times)
	return times[len(times)/2], st, nil
}

// verifyAll replays the seeded sample of answers on the simulator, off the
// timed clock. Each replay is one more attempted request.
func (st *stack) verifyAll(rs []*request) (attempted, failed int, firstErr error) {
	for _, r := range rs {
		attempted++
		if err := st.verify(bg, r); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s on POPS(%d,%d): %w", r.class, r.d, r.g, err)
			}
		}
	}
	return attempted, failed, firstErr
}

// report prints the human-readable summary of a run, environment included,
// to standard error.
func report(sp *spec, res *result, ph *phase, ok int, firstErr, vErr error) {
	w := os.Stderr
	fmt.Fprintf(w, "%s: attempted %d, succeeded %d, failed %d, %d samples over %.2fs\n",
		sp.name, res.Attempted, res.Attempted-res.Failed, res.Failed, ok, ph.wall.Seconds())
	if firstErr != nil {
		fmt.Fprintf(w, "  first failed answer: %v\n", firstErr)
	}
	if vErr != nil {
		fmt.Fprintf(w, "  first failed replay: %v\n", vErr)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %12.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, kv := range envMetrics(ph, ok) {
		if _, printed := res.Metrics[kv.name]; !printed {
			fmt.Fprintf(w, "  %-40s %12.4f %s\n", kv.name, kv.Value, kv.Unit)
		}
	}
	if drift := heapDrift(ph); drift > heapDriftLimit {
		fmt.Fprintf(w, "  WARNING: live heap moved %.0f%% during timing (limit %.0f%%): not at steady state\n",
			100*drift, 100*heapDriftLimit)
	}
}

// heapDriftLimit is the largest relative change of the live heap between
// the start and end of timing for which the run counts as steady.
const heapDriftLimit = 0.25

func heapDrift(ph *phase) float64 {
	a, b := float64(ph.env0.heapLive), float64(ph.heapEnd)
	if a == 0 {
		return 0
	}
	d := (b - a) / a
	if d < 0 {
		d = -d
	}
	return d
}

type namedMetric struct {
	name string
	metric
}

// envMetrics are the environment readings printed with every run.
func envMetrics(ph *phase, ok int) []namedMetric {
	lag := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		lag[i] = s.lag
	}
	return []namedMetric{
		{"loadgen.lag_p99_ms", metric{quantile(lag, 0.99), "ms"}},
		{"host.steal_pct", metric{stealPct(ph.env0, ph.env1), "%"}},
		{"runtime.gc_cycles_per_req", metric{float64(ph.env1.gcCycles-ph.env0.gcCycles) / float64(max(ok, 1)), "1/req"}},
		{"runtime.heap_live_mb.start", metric{float64(ph.env0.heapLive) / (1 << 20), "MB"}},
		{"runtime.heap_live_mb.end", metric{float64(ph.heapEnd) / (1 << 20), "MB"}},
	}
}
