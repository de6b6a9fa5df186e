package main

import (
	"context"
	"fmt"
	"slices"

	"pops"
	"pops/internal/popsnet"
	"pops/internal/wire"
)

// sample is what the client observed for one request. Answers are kept
// and checked after the timed phase, so checking costs no timed work.
type sample struct {
	req   *request
	lat   float64 // ms, from send (closed loop) or scheduled send (open loop)
	ttfs  float64 // ms until the first slot record was decoded; lat for unary
	lag   float64 // ms the open-loop generator sent late
	slots int
	frags int
	fp    string
	err   error
}

// check reports whether an answer is the one its request must get: no
// error, the Theorem 2 (or h-relation, or local fault-plan) slot count, and
// the request's own workload fingerprint.
func check(s *sample, r *request) error {
	switch {
	case s.err != nil:
		return s.err
	case s.slots != r.slots:
		return fmt.Errorf("answer has %d slots, want %d", s.slots, r.slots)
	case s.fp != r.fp:
		return fmt.Errorf("answer fingerprint %s, want %s", s.fp, r.fp)
	}
	return nil
}

// routeRequest is the wire form of r asking for the full schedule.
func routeRequest(r *request) *wire.RouteRequest {
	req := &wire.RouteRequest{D: r.d, G: r.g, Workload: r.w.Kind(), IncludeSchedule: true}
	switch {
	case r.reqs != nil:
		req.Requests = make([]wire.Request, len(r.reqs))
		for i, q := range r.reqs {
			req.Requests[i] = wire.Request{Src: q.Src, Dst: q.Dst}
		}
	case r.faults != nil:
		req.Pi = r.pi
		req.Faults = &wire.FaultSet{}
		for _, c := range r.faults.Couplers {
			req.Faults.Couplers = append(req.Faults.Couplers, wire.Coupler{B: c.B, A: c.A})
		}
		req.Faults.Groups = r.faults.Groups
	default:
		req.Pi = r.pi
	}
	return req
}

// verify fetches r's schedule through the front door — over the stream
// when r is streamed, else in a /route answer — and replays it on the
// slot-level simulator: every packet must arrive, on the fault-injected
// network for fault plans.
func (st *stack) verify(ctx context.Context, r *request) error {
	var sched *popsnet.Schedule
	if r.stream {
		c := st.client
		if r.ndjson {
			c = st.ndjson
		}
		slots, err := collectStream(ctx, c, r)
		if err != nil {
			return err
		}
		sched = &popsnet.Schedule{Net: popsnet.Network{D: r.d, G: r.g}, Slots: slots}
	} else {
		resp, err := st.client.Do(ctx, routeRequest(r))
		if err != nil {
			return err
		}
		if len(resp.Plans) != 1 || resp.Plans[0].Schedule == nil {
			return fmt.Errorf("answer carries no schedule")
		}
		if e := resp.Plans[0].Error; e != "" {
			return fmt.Errorf("planning failed: %s", e)
		}
		sched = resp.Plans[0].Schedule
	}
	return replay(r, sched)
}

// replay checks the slot count of sched and that it delivers r's workload.
func replay(r *request, sched *popsnet.Schedule) error {
	if len(sched.Slots) != r.slots {
		return fmt.Errorf("schedule has %d slots, want %d", len(sched.Slots), r.slots)
	}
	var err error
	switch {
	case r.reqs != nil:
		home := make([]int, len(r.reqs))
		want := make([]int, len(r.reqs))
		for i, q := range r.reqs {
			home[i], want[i] = q.Src, q.Dst
		}
		_, err = popsnet.VerifyDelivery(sched, home, want)
	case r.faults != nil:
		var fn *popsnet.FaultyNetwork
		if fn, err = r.faults.Compile(sched.Net); err == nil {
			_, err = popsnet.VerifyPermutationRoutedFaulty(sched, r.pi, fn)
		}
	default:
		_, err = popsnet.VerifyPermutationRouted(sched, r.pi)
	}
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return nil
}

// collectStream drains a slot stream and reassembles its fragments by
// (slot, offset) into the schedule.
func collectStream(ctx context.Context, c *pops.ServiceClient, r *request) ([]popsnet.Slot, error) {
	ps, err := c.ExecuteStream(ctx, r.d, r.g, r.w)
	if err != nil {
		return nil, err
	}
	defer ps.Close()
	slots := make([]popsnet.Slot, ps.Meta().Slots)
	for {
		rec, err := ps.Next()
		if err != nil {
			return nil, err
		}
		if rec == nil {
			break
		}
		if rec.Slot < 0 || rec.Slot >= len(slots) {
			return nil, fmt.Errorf("fragment for slot %d of %d", rec.Slot, len(slots))
		}
		s := &slots[rec.Slot]
		if end := rec.Offset + len(rec.Sends); end > len(s.Sends) {
			s.Sends = slices.Grow(s.Sends, end-len(s.Sends))[:end]
			s.Recvs = slices.Grow(s.Recvs, end-len(s.Recvs))[:end]
		}
		// Binary fragments alias the decoder's buffer: copy them out.
		copy(s.Sends[rec.Offset:], rec.Sends)
		copy(s.Recvs[rec.Offset:], rec.Recvs)
	}
	return slots, nil
}
