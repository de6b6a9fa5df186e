// Command popsproxy is the cluster front door of the POPS routing service:
// it fans the popsserved wire protocol out across a fleet of backends on a
// consistent-hash ring keyed by (d, g, workload fingerprint), so replayed
// and duplicate in-flight workloads land on the node that already owns the
// materialized plan — every node's shard LRU and fingerprint plan cache
// stay hot. Backends are health-checked in the background (ejected after
// consecutive /healthz failures, re-admitted on recovery), connection
// errors fail over to the next ring owner with bounded backoff, slot
// streams are re-framed record by record without buffering whole plans, and
// GET /stats answers with the fleet aggregate plus a per-backend breakdown.
//
// The HTTP surface is byte-compatible with a single popsserved node, so
// pops.ServiceClient — and every example that uses it — works unchanged
// against a proxy. SIGINT/SIGTERM trigger graceful drain mirroring
// popsserved: the listener stops and in-flight proxied requests and streams
// finish (force-closed past -drain-timeout).
//
// Usage:
//
//	popsproxy -addr :8700 -backends http://10.0.0.1:8714,http://10.0.0.2:8714
//	curl -s localhost:8700/route -d '{"d":8,"g":8,"pi":[63,62,...,0]}'
//	curl -s localhost:8700/stats | jq .backends
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
	"strings"
	"syscall"
	"time"

	"pops/internal/cluster"
	"pops/internal/obs/debugmux"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "popsproxy:", err)
		os.Exit(1)
	}
}

// run starts the proxy and blocks until ctx is canceled, then shuts down
// gracefully: listener first, then the proxy drain. ready, when non-nil,
// receives the bound address once the server accepts connections — tests
// use it with ":0" to avoid port races.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("popsproxy", flag.ContinueOnError)
	var (
		addr           = fs.String("addr", ":8700", "listen address")
		backends       = fs.String("backends", "", "comma-separated popsserved base URLs (required)")
		replicas       = fs.Int("replicas", 64, "virtual nodes per backend on the hash ring")
		healthInterval = fs.Duration("health-interval", time.Second, "background health probe period")
		healthTimeout  = fs.Duration("health-timeout", 2*time.Second, "health probe deadline")
		failAfter      = fs.Int("fail-after", 2, "consecutive failed probes before a backend is ejected")
		retries        = fs.Int("retries", 2, "failover attempts after a connection error")
		retryBackoff   = fs.Duration("retry-backoff", 10*time.Millisecond, "backoff before the first failover attempt (doubles per attempt)")
		slow           = fs.Int("slow", 64, "slowest traced requests retained for GET /debug/slow")
		debugAddr      = fs.String("debug-addr", "", "optional second listener serving net/http/pprof and /metrics")
		maxPerBackend  = fs.Int("max-per-backend", 128, "concurrent forwards per backend; excess sheds with 429 (negative = uncapped)")
		brFailures     = fs.Int("breaker-failures", 5, "consecutive request failures that open a backend's circuit breaker (negative disables)")
		brLatency      = fs.Duration("breaker-latency", 0, "forward-latency EWMA that opens the breaker (0 disables)")
		brCooldown     = fs.Duration("breaker-cooldown", time.Second, "open-breaker dwell before a half-open probe")
		drainWait      time.Duration
	)
	fs.DurationVar(&drainWait, "drain-timeout", 10*time.Second, "graceful shutdown deadline for open connections")
	fs.DurationVar(&drainWait, "drain", 10*time.Second, "alias for -drain-timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		return errors.New("-backends is required (comma-separated popsserved base URLs)")
	}

	proxy, err := cluster.New(cluster.Config{
		Backends:        urls,
		Replicas:        *replicas,
		HealthInterval:  *healthInterval,
		HealthTimeout:   *healthTimeout,
		FailAfter:       *failAfter,
		Retries:         *retries,
		RetryBackoff:    *retryBackoff,
		SlowRequests:    *slow,
		MaxPerBackend:   *maxPerBackend,
		BreakerFailures: *brFailures,
		BreakerLatency:  *brLatency,
		BreakerCooldown: *brCooldown,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		proxy.Close()
		return err
	}
	srv := &http.Server{Handler: proxy.Handler()}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			proxy.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		fmt.Fprintf(stdout, "popsproxy: debug listener (pprof, /metrics) on %s\n", dln.Addr())
		go func() { _ = http.Serve(dln, debugmux.Handler(proxy.Metrics())) }()
	}
	fmt.Fprintf(stdout, "popsproxy: listening on %s, %d backend(s) on the ring (replicas=%d fail-after=%d retries=%d)\n",
		ln.Addr(), len(urls), *replicas, *failAfter, *retries)
	if ready != nil {
		ready <- ln.Addr()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		proxy.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain, mirroring popsserved: stop accepting, let in-flight
	// proxied requests and pass-through streams finish, force-close
	// connections that outlive -drain-timeout so a wedged stream cannot
	// hold the process open forever.
	fmt.Fprintln(stdout, "popsproxy: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	if shutdownErr != nil {
		srv.Close()
	}
	proxy.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "popsproxy: drained")
	return shutdownErr
}
