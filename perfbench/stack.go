package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"pops"
	"pops/internal/cluster"
	"pops/internal/service"
)

// server is one loopback HTTP listener serving an in-process handler.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close() // the listener and every connection are closed; nothing to drain
	<-s.done
}

// stack is the serving stack a workload drives, started in-process on
// loopback: one or more routing-service backends and, for more than one
// backend, the cluster proxy in front of them. Clients talk to front.
type stack struct {
	svcs     []*service.Service
	backends []*server
	proxy    *cluster.Proxy
	front    *server
	tr       *http.Transport
	client   *pops.ServiceClient // default codec: binary, negotiated
	ndjson   *pops.ServiceClient // pinned to JSON / NDJSON
	direct   *pops.ServiceClient // first backend, bypassing the proxy
}

// stackConfig selects what startStack builds.
type stackConfig struct {
	backends  int
	cacheSize int
	conns     int
	observer  pops.PlanObserver // nil: no benchmark observer installed
}

func startStack(cfg stackConfig) (*stack, error) {
	st := &stack{}
	var opts []pops.Option
	if cfg.observer != nil {
		opts = append(opts, pops.WithPlanObserver(cfg.observer))
	}
	var urls []string
	for i := 0; i < cfg.backends; i++ {
		svc := service.New(service.Config{
			Name:           fmt.Sprintf("node-%d", i),
			CacheSize:      cfg.cacheSize,
			PlannerOptions: opts,
		})
		st.svcs = append(st.svcs, svc)
		srv, err := serve(svc.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, srv)
		urls = append(urls, srv.url)
	}
	st.front = st.backends[0]
	if cfg.backends > 1 {
		p, err := cluster.New(cluster.Config{Backends: urls})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("start proxy: %w", err)
		}
		st.proxy = p
		if st.front, err = serve(p.Handler()); err != nil {
			st.close()
			return nil, err
		}
	}
	st.tr = &http.Transport{
		MaxIdleConns:        2 * cfg.conns,
		MaxIdleConnsPerHost: cfg.conns,
		MaxConnsPerHost:     cfg.conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	hc := &http.Client{Transport: st.tr}
	st.client = pops.NewServiceClient(st.front.url, hc)
	st.ndjson = st.client.WithCodec(pops.CodecJSON)
	st.direct = pops.NewServiceClient(st.backends[0].url, hc)
	if err := waitHealthy(st.client); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// waitHealthy polls the front door until it admits requests; the proxy's
// first health round runs in the background.
func waitHealthy(c *pops.ServiceClient) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		err := c.Healthz(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serving stack never became healthy: %w", err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (st *stack) close() {
	if st.front != nil && st.proxy != nil {
		st.front.close()
	}
	if st.proxy != nil {
		st.proxy.Close()
	}
	for _, b := range st.backends {
		b.close()
	}
	var wg sync.WaitGroup
	for _, s := range st.svcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	if st.tr != nil {
		st.tr.CloseIdleConnections()
	}
}

// fill sends every set-up request once through the front door, bringing
// the plan caches to the state they hold during the timed phase.
func (st *stack) fill(ctx context.Context, reqs []*request) error {
	for _, r := range reqs {
		var s sample
		st.do(ctx, r, &s, time.Now())
		if err := check(&s, r); err != nil {
			return fmt.Errorf("set-up request (%s on POPS(%d,%d)): %w", r.class, r.d, r.g, err)
		}
	}
	return nil
}

// do sends one request and records what the client observed into s.
// Latency and time to first slot are measured from t0, which an open loop
// sets to the request's scheduled send time.
func (st *stack) do(ctx context.Context, r *request, s *sample, t0 time.Time) {
	c := st.client
	if r.ndjson {
		c = st.ndjson
	}
	if !r.stream {
		p, err := c.Execute(ctx, r.d, r.g, r.w)
		s.lat = ms(time.Since(t0))
		s.ttfs = s.lat
		switch {
		case err != nil:
			s.err = err
		case p.Error != "":
			s.err = errors.New(p.Error)
		default:
			s.slots, s.fp = p.Slots, p.Fingerprint
		}
		return
	}
	ps, err := c.ExecuteStream(ctx, r.d, r.g, r.w)
	if err != nil {
		s.lat = ms(time.Since(t0))
		s.err = err
		return
	}
	defer ps.Close()
	n := 0
	for {
		rec, err := ps.Next()
		if err != nil {
			s.lat = ms(time.Since(t0))
			s.err = err
			return
		}
		if rec == nil {
			break
		}
		if n == 0 {
			s.ttfs = ms(time.Since(t0))
		}
		n++
	}
	s.lat = ms(time.Since(t0))
	m := ps.Meta()
	s.slots, s.fp, s.frags = m.Slots, m.Fingerprint, n
	if d := ps.Done(); d == nil || d.Slots != m.Slots || d.Fragments != n || m.Fragments != n {
		s.err = fmt.Errorf("stream framing: meta promised %d fragments, got %d (done %+v)", m.Fragments, n, d)
	}
}
