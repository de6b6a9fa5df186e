package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"pops/internal/wire"
)

// phase is one timed run of a workload against a stack.
type phase struct {
	samples    []sample
	wall       time.Duration
	env0, env1 envSnap
	heapEnd    uint64
	stats0     []wire.StatsResponse // per backend, before and after
	stats1     []wire.StatsResponse
	proxy0     []wire.BackendStats // proxy's per-backend view, when present
	proxy1     []wire.BackendStats
}

func (st *stack) snapshot() ([]wire.StatsResponse, []wire.BackendStats) {
	stats := make([]wire.StatsResponse, len(st.svcs))
	for i, s := range st.svcs {
		stats[i] = s.Stats()
	}
	var be []wire.BackendStats
	if st.proxy != nil {
		be = st.proxy.Backends()
	}
	return stats, be
}

// run drives the timed phase: a closed loop of sp.clients clients cycling
// in.seq for the given duration, or the open-loop arrival schedule in.arr
// sent by sp.clients workers.
func (st *stack) run(ctx context.Context, sp *spec, in *inputs, dur time.Duration) *phase {
	ph := &phase{}
	arr := in.arr
	for len(arr) > 0 && arr[len(arr)-1].at >= dur {
		arr = arr[:len(arr)-1]
	}
	// Sample buffers are allocated before the start snapshot, so the live
	// heap reading covers them.
	per := make([][]sample, sp.clients)
	for c := range per {
		if sp.rate > 0 {
			per[c] = make([]sample, 0, len(arr))
		} else {
			// Room for 2500 requests per second per client, above any
			// workload's rate, so the buffers never regrow while timing.
			per[c] = make([]sample, 0, 2500*int(dur.Seconds()+1))
		}
	}
	settle()
	ph.stats0, ph.proxy0 = st.snapshot()
	ph.env0 = readEnv()
	var wg sync.WaitGroup
	if sp.rate > 0 {
		var next atomic.Int64
		start := time.Now().Add(time.Millisecond)
		for c := range per {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(arr) {
						return
					}
					a := arr[i]
					// A request the senders reach late because they were
					// busy is timed from when it was due, so a stall counts
					// against every request it delays. One a sender slept
					// for is timed from the wake-up: timer slop is the
					// generator's lag, not the system's.
					t0 := start.Add(a.at)
					if d := time.Until(t0); d > 0 {
						time.Sleep(d)
						t0 = time.Now()
					}
					s := sample{req: a.req, lag: ms(time.Since(start.Add(a.at)))}
					st.do(ctx, a.req, &s, t0)
					per[c] = append(per[c], s)
				}
			}()
		}
	} else {
		end := time.Now().Add(dur)
		for c := range per {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k := c * len(in.seq) / len(per)
				for time.Now().Before(end) {
					r := in.seq[k%len(in.seq)]
					k++
					s := sample{req: r}
					st.do(ctx, r, &s, time.Now())
					per[c] = append(per[c], s)
				}
			}()
		}
	}
	wg.Wait()
	ph.env1 = readEnv()
	ph.wall = ph.env1.wall.Sub(ph.env0.wall)
	ph.stats1, ph.proxy1 = st.snapshot()
	settle()
	ph.heapEnd = readEnv().heapLive
	for _, p := range per {
		ph.samples = append(ph.samples, p...)
	}
	return ph
}

// tally checks every answer of the phase and returns the successful
// samples and the number of failed requests.
func (ph *phase) tally() (ok []sample, failed int, firstErr error) {
	for _, s := range ph.samples {
		if err := check(&s, s.req); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok = append(ok, s)
	}
	return ok, failed, firstErr
}

func lats(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

func ttfss(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ttfs
	}
	return out
}
