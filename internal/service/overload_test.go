package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pops"
	"pops/internal/wire"
)

// newRawServer mounts svc on an httptest server and returns its base URL,
// for tests that need to read raw response headers and statuses.
func newRawServer(t *testing.T, svc *Service) string {
	t.Helper()
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		srv.Close()
	})
	return srv.URL
}

func permJSON(pi []int) string {
	b, _ := json.Marshal(pi)
	return string(b)
}

// newIdleShard builds a shard whose admission loop is NOT running, so its
// queue state is fully deterministic: admissions stay queued until the test
// starts the loop itself.
func newIdleShard(t *testing.T, svc *Service, d, g int) *shard {
	t.Helper()
	sh, err := newShard(svc, d, g)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func startLoop(svc *Service, sh *shard) {
	svc.wg.Add(1)
	go sh.loop()
}

// TestQueueOverflowShedsTyped fills a shard's bounded admission queue and
// pins the overflow contract: the excess admission is rejected immediately
// with a typed *pops.OverloadError carrying the shape, queue name, and a
// positive Retry-After hint — and every request that was admitted before the
// bound still completes once the loop runs.
func TestQueueOverflowShedsTyped(t *testing.T) {
	svc := New(Config{QueueDepth: 2, BatchSize: 2, BatchDelay: time.Millisecond})
	t.Cleanup(svc.Close)
	sh := newIdleShard(t, svc, 4, 4)

	pi := pops.VectorReversal(16)
	ctx := context.Background()
	var waiters []chan Result
	for i := 0; i < 2; i++ {
		ch, err := sh.admit(ctx, pi)
		if err != nil {
			t.Fatalf("admit %d within the queue bound: %v", i, err)
		}
		waiters = append(waiters, ch)
	}

	_, err := sh.admit(ctx, pi)
	var oe *pops.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("overflow admission returned %v, want *pops.OverloadError", err)
	}
	if oe.D != 4 || oe.G != 4 || oe.Queue != "admission" {
		t.Fatalf("verdict = %+v, want D=4 G=4 Queue=admission", oe)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if got := sh.sheds.Load(); got != 1 {
		t.Fatalf("shard sheds = %d, want 1", got)
	}

	// The queue bound rejected the overflow, not the admitted work: start
	// the loop and every queued request must still complete with a plan.
	startLoop(svc, sh)
	for i, ch := range waiters {
		select {
		case res := <-ch:
			if res.Err != nil || res.Plan == nil {
				t.Fatalf("queued request %d: %+v, want a plan", i, res)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("queued request %d never completed", i)
		}
	}
	sh.close()
	<-sh.done
}

// TestDeadlineExpiredQueuedRequestShed pins deadline shedding: a request
// whose propagated deadline expires while it sits in the queue is dropped at
// flush — its waiter receives context.DeadlineExceeded and the planner never
// sees it.
func TestDeadlineExpiredQueuedRequestShed(t *testing.T) {
	svc := New(Config{QueueDepth: 4, BatchSize: 2, BatchDelay: time.Millisecond})
	t.Cleanup(svc.Close)
	sh := newIdleShard(t, svc, 4, 4)

	dctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	doomed, err := sh.admit(dctx, pops.VectorReversal(16))
	if err != nil {
		t.Fatalf("admit with a live deadline: %v", err)
	}
	alive, err := sh.admit(context.Background(), pops.IdentityPermutation(16))
	if err != nil {
		t.Fatalf("admit without a deadline: %v", err)
	}
	<-dctx.Done() // the queued entry's deadline passes before any flush

	startLoop(svc, sh)
	select {
	case res := <-doomed:
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Fatalf("doomed entry resolved %+v, want DeadlineExceeded", res)
		}
		if res.Plan != nil {
			t.Fatal("doomed entry was planned anyway")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("doomed entry never resolved")
	}
	select {
	case res := <-alive:
		if res.Err != nil || res.Plan == nil {
			t.Fatalf("live entry resolved %+v, want a plan", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live entry never completed")
	}
	if got := sh.deadlineSheds.Load(); got != 1 {
		t.Fatalf("deadline sheds = %d, want 1", got)
	}
	sh.close()
	<-sh.done
}

// TestAdmitRefusesExpiredContext: a request that arrives already expired is
// refused before it takes a queue slot.
func TestAdmitRefusesExpiredContext(t *testing.T) {
	svc := New(Config{QueueDepth: 4})
	t.Cleanup(svc.Close)
	sh := newIdleShard(t, svc, 4, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sh.admit(ctx, pops.VectorReversal(16)); !errors.Is(err, context.Canceled) {
		t.Fatalf("admit with a dead context: %v, want context.Canceled", err)
	}
	if n := len(sh.reqs); n != 0 {
		t.Fatalf("dead-context admission took a queue slot (%d queued)", n)
	}
	sh.close() // the loop never ran, so there is no drain to wait for
}

// TestStreamCapSheds is the regression test for /route/stream bypassing
// admission control: with MaxStreams=1, the slot is held for the life of an
// open stream — a second concurrent stream on the shard sheds with a typed
// "stream" overload verdict, and closing the first stream frees the slot.
func TestStreamCapSheds(t *testing.T) {
	svc := New(Config{MaxStreams: 1})
	t.Cleanup(svc.Close)
	const d, g = 4, 4
	pi := pops.VectorReversal(d * g)

	st, err := svc.ExecuteStream(context.Background(), d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatalf("first stream: %v", err)
	}

	_, err = svc.ExecuteStream(context.Background(), d, g, pops.Permutation(pi))
	var oe *pops.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("second stream error %v, want *pops.OverloadError", err)
	}
	if oe.Queue != "stream" {
		t.Fatalf("overload queue %q, want stream", oe.Queue)
	}

	st.Close() // release the slot; the next stream must be admitted again
	st3, err := svc.ExecuteStream(context.Background(), d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatalf("stream after slot release: %v", err)
	}
	st3.Close()
}

// TestHTTPShedAnswers429WithRetryAfter pins the wire shape of a shed: HTTP
// 429 with both Retry-After (whole seconds) and X-Retry-After-Ms, plus the
// queue attribution header.
func TestHTTPShedAnswers429WithRetryAfter(t *testing.T) {
	svc := New(Config{MaxStreams: 1})
	raw := newRawServer(t, svc)
	client := pops.NewServiceClient(raw, nil)

	// Hold the shard's one stream slot open in-process so the HTTP attempt
	// below is deterministically over the cap.
	st, err := svc.ExecuteStream(context.Background(), 4, 4, pops.Permutation(pops.VectorReversal(16)))
	if err != nil {
		t.Fatalf("first stream: %v", err)
	}
	defer st.Close()

	resp, err := http.Post(raw+"/route/stream", "application/json",
		strings.NewReader(`{"d":4,"g":4,"pi":`+permJSON(pops.VectorReversal(16))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp.Header.Get(wire.HeaderRetryAfterMs) == "" {
		t.Fatal("429 without X-Retry-After-Ms")
	}
	if got := resp.Header.Get(wire.HeaderOverloadQueue); got != "stream" {
		t.Fatalf("X-Overload-Queue = %q, want stream", got)
	}

	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sheds == 0 {
		t.Fatal("/stats Sheds = 0 after a shed")
	}
}

// TestHTTPExpiredDeadlineAnswers504: a request whose X-Deadline already
// passed is answered 504 without planning.
func TestHTTPExpiredDeadlineAnswers504(t *testing.T) {
	svc := New(Config{})
	raw := newRawServer(t, svc)

	req, err := http.NewRequest(http.MethodPost, raw+"/route",
		strings.NewReader(`{"d":4,"g":4,"pi":`+permJSON(pops.VectorReversal(16))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.HeaderDeadline, wire.EncodeDeadline(time.Now().Add(-time.Second)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	stats := svc.Stats()
	if stats.DeadlineSheds == 0 {
		t.Fatal("/stats DeadlineSheds = 0 after an expired-deadline request")
	}
	if stats.Requests != 0 {
		t.Fatalf("requests = %d, want 0 (nothing was admitted)", stats.Requests)
	}
}
