// Command popsserved is the long-running POPS routing service: a sharded
// planner server (internal/service) speaking HTTP/JSON. One planner shard
// is created lazily per requested POPS(d, g) shape (LRU-bounded), each
// shard micro-batches concurrent requests onto the batch planner, and a
// fingerprint plan cache answers recurring permutations without replanning.
//
// POST /route/stream streams a plan's slots as NDJSON chunks: the first
// slot records are flushed while later color classes of the factorization
// are still being peeled, so time-to-first-slot is a small fraction of the
// full planning latency (GET /stats exports its histogram), and the shard
// keeps admitting other requests mid-factorization.
//
// Endpoints: POST /route, POST /route/stream, GET /slots, GET /stats,
// GET /healthz — see internal/wire for the JSON schema and
// pops.ServiceClient for the Go client. SIGINT/SIGTERM trigger graceful
// shutdown: the listener stops, and in-flight micro-batches AND open slot
// streams drain before the process exits (connections are force-closed if
// they outlive -drain-timeout, so a wedged stream cannot hold the process
// open forever — cluster rolling restarts rely on this bound).
//
// Usage:
//
//	popsserved -addr :8714 -batch 32 -batch-delay 1ms -cache 1024 -max-shards 64
//	curl -s localhost:8714/route -d '{"d":8,"g":8,"pi":[63,62,...,0]}'
//	curl -sN localhost:8714/route/stream -d '{"d":8,"g":8,"pi":[63,62,...,0]}'
//	curl -s 'localhost:8714/slots?d=8&g=8'
//	curl -s localhost:8714/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pops"
	"pops/internal/obs/debugmux"
	"pops/internal/service"
)

// parseTenantWeights decodes the -tenant-weights "name=weight,..." flag into
// the service's TenantMix map. Empty input means no weighting (nil map).
func parseTenantWeights(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	weights := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-tenant-weights: %q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenant-weights: %q needs a positive weight", part)
		}
		weights[strings.TrimSpace(name)] = w
	}
	return weights, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "popsserved:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until ctx is canceled, then shuts down
// gracefully: listener first, then the service drain. ready, when non-nil,
// receives the bound address once the server accepts connections — the
// smoke test uses it with ":0" to avoid port races.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("popsserved", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8714", "listen address")
		name       = fs.String("name", "", "node identity reported in /stats (default: the listen address)")
		batch      = fs.Int("batch", 32, "micro-batch flush size per shard")
		batchDelay = fs.Duration("batch-delay", time.Millisecond, "micro-batch flush deadline")
		cache      = fs.Int("cache", 1024, "per-shard plan cache entries (0 disables)")
		maxShards  = fs.Int("max-shards", 64, "live planner shards (LRU bound)")
		par        = fs.Int("parallelism", 0, "workers per shard batch (0 = GOMAXPROCS)")
		verify     = fs.Bool("verify", false, "replay every schedule on the simulator before serving it")
		slow       = fs.Int("slow", 64, "slowest traced requests retained for GET /debug/slow")
		debugAddr  = fs.String("debug-addr", "", "optional second listener serving net/http/pprof and /metrics")
		queueDepth = fs.Int("queue-depth", 0, "admission queue bound per shard; excess sheds with 429 (0 = 32x batch)")
		maxStreams = fs.Int("max-streams", 64, "concurrently open slot streams per shard (negative = uncapped)")
		maxDirect  = fs.Int("max-direct", 0, "concurrent direct-path requests per shard (0 = uncapped)")
		tenants    = fs.String("tenant-weights", "", "weighted-fair admission shares, e.g. gold=9,free=1 (unlisted tenants weigh 1)")
		drainWait  time.Duration
	)
	// -drain-timeout bounds graceful shutdown: a wedged connection — a
	// stream consumer that stopped reading, a request body that never
	// finishes — is force-closed at the deadline so cluster rolling
	// restarts cannot hang on one stuck peer. -drain is the original
	// spelling, kept as an alias.
	fs.DurationVar(&drainWait, "drain-timeout", 10*time.Second, "graceful shutdown deadline for open connections")
	fs.DurationVar(&drainWait, "drain", 10*time.Second, "alias for -drain-timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var opts []pops.Option
	if *par > 0 {
		opts = append(opts, pops.WithParallelism(*par))
	}
	if *verify {
		opts = append(opts, pops.WithVerify(true))
	}
	cacheSize := *cache
	if cacheSize <= 0 {
		cacheSize = -1 // Config: negative disables, zero means default
	}
	weights, err := parseTenantWeights(*tenants)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	nodeName := *name
	if nodeName == "" {
		nodeName = "popsserved@" + ln.Addr().String()
	}
	svc := service.New(service.Config{
		Name:           nodeName,
		MaxShards:      *maxShards,
		BatchSize:      *batch,
		BatchDelay:     *batchDelay,
		CacheSize:      cacheSize,
		PlannerOptions: opts,
		SlowRequests:   *slow,
		QueueDepth:     *queueDepth,
		MaxStreams:     *maxStreams,
		MaxDirect:      *maxDirect,
		TenantWeights:  weights,
	})
	srv := &http.Server{Handler: svc.Handler()}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		fmt.Fprintf(stdout, "popsserved: debug listener (pprof, /metrics) on %s\n", dln.Addr())
		go func() { _ = http.Serve(dln, debugmux.Handler(svc.Metrics())) }()
	}
	fmt.Fprintf(stdout, "popsserved: listening on %s (batch=%d delay=%s cache=%d shards≤%d)\n",
		ln.Addr(), *batch, *batchDelay, *cache, *maxShards)
	if ready != nil {
		ready <- ln.Addr()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting and let open connections — batch
	// requests and slot streams alike — finish, then drain the shards'
	// in-flight micro-batches and streams. If a connection outlives the
	// drain deadline (e.g. a stream consumer that stopped reading), it is
	// force-closed so svc.Close cannot block on its stream forever.
	fmt.Fprintln(stdout, "popsserved: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	if shutdownErr != nil {
		srv.Close()
	}
	svc.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "popsserved: drained")
	return shutdownErr
}
