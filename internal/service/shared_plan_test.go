package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pops"
	"pops/internal/wire"
)

// TestSharedCachedPlanConcurrentReads pins that a cached plan is read-only
// shared state. Goroutines call Schedule, Verify and SlotCount on one
// cached *pops.Plan while include_schedule requests serve it and other
// cached plans (make race runs this under -race), and every reader sees the
// same schedule. A plan stores no slots and Schedule keeps none of what it
// writes, so serving eight cached plans' schedules must not grow the heap
// by even one schedule's size.
func TestSharedCachedPlanConcurrentReads(t *testing.T) {
	const plans = 8
	rng := rand.New(rand.NewSource(3))
	permutation := func() wire.RouteRequest {
		return wire.RouteRequest{D: 16, G: 64, Pi: pops.RandomPermutation(16*64, rng)}
	}
	relation := func() wire.RouteRequest {
		var reqs []wire.Request
		for range 4 {
			for src, dst := range rng.Perm(16 * 16) {
				reqs = append(reqs, wire.Request{Src: src, Dst: dst})
			}
		}
		return wire.RouteRequest{D: 16, G: 16, Workload: wire.WorkloadHRelation, Requests: reqs}
	}
	for _, c := range []struct {
		name string
		gen  func() wire.RouteRequest
	}{
		{"(16,64) permutation", permutation},
		{"(16,16) 4-relation", relation},
	} {
		t.Run(c.name, func(t *testing.T) {
			svc := New(Config{})
			defer svc.Close()
			h := svc.Handler()
			route := func(req wire.RouteRequest, include bool) *wire.PlanResult {
				req.IncludeSchedule = include
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return nil
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/route", bytes.NewReader(body)))
				var resp wire.RouteResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Plans) != 1 {
					t.Errorf("/route answered %d: %s", rec.Code, rec.Body.String())
					return nil
				}
				return &resp.Plans[0]
			}
			reqs := make([]wire.RouteRequest, plans)
			for i := range reqs {
				reqs[i] = c.gen()
				route(reqs[i], false)
				// The replay warms the handler's lazily built state on a hit.
				if pr := route(reqs[i], false); pr == nil || !pr.Cached {
					t.Fatalf("plan %d was not served from the cache", i)
				}
			}
			// Warm the JSON encoders of the schedule types with an uncached
			// plan's include_schedule answer.
			route(wire.RouteRequest{D: 2, G: 4, Pi: []int{7, 6, 5, 4, 3, 2, 1, 0}}, true)
			w, err := pops.WorkloadFromRequest(&reqs[0])
			if err != nil {
				t.Fatal(err)
			}
			res, err := svc.Execute(context.Background(), reqs[0].D, reqs[0].G, w)
			if err != nil || !res.Cached {
				t.Fatalf("Execute: cached %v, err %v; want a cache hit", res.Cached, err)
			}
			plan, want := res.Plan, res.Plan.Schedule()
			heap := func() uint64 {
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			before := heap()

			var wg sync.WaitGroup
			for i := range plans {
				wg.Add(1)
				go func() {
					defer wg.Done()
					pr := route(reqs[i], true)
					switch {
					case pr == nil:
					case !pr.Cached || pr.Schedule == nil:
						t.Errorf("include_schedule answer %d: cached %v, schedule %v", i, pr.Cached, pr.Schedule != nil)
					case i == 0 && !reflect.DeepEqual(pr.Schedule.Slots, want.Slots):
						t.Error("include_schedule answer differs from the plan's schedule")
					}
					if got := plan.Schedule(); !reflect.DeepEqual(got, want) {
						t.Error("concurrent Schedule differs from the first one")
					}
					if _, err := plan.Verify(); err != nil {
						t.Error(err)
					}
					if got := plan.SlotCount(); got != len(want.Slots) {
						t.Errorf("SlotCount = %d, want %d", got, len(want.Slots))
					}
				}()
			}
			wg.Wait()

			after := heap()
			runtime.KeepAlive(plan)
			runtime.KeepAlive(want)
			schedBytes := uint64(0)
			for _, s := range want.Slots {
				schedBytes += uint64(len(s.Sends))*24 + uint64(len(s.Recvs))*16
			}
			t.Logf("heap %d → %d B across %d include_schedule answers of %d B schedules", before, after, plans, schedBytes)
			if after > before && after-before > schedBytes {
				t.Errorf("heap grew %d B across %d include_schedule answers; one schedule is %d B", after-before, plans, schedBytes)
			}
		})
	}
}
