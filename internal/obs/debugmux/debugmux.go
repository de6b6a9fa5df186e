// Package debugmux builds the optional -debug-addr surface that popsserved
// and popsproxy share. It is a package of its own, not part of obs, because
// importing net/http/pprof registers the profiling handlers on
// http.DefaultServeMux, and the pops library imports obs.
package debugmux

import (
	"net/http"
	"net/http/pprof"
)

// Handler serves net/http/pprof under /debug/pprof/ plus a mirror of the
// binary's GET /metrics handler, kept off the serving listener so profiling
// traffic cannot contend with routing traffic (and so operators can
// firewall it separately).
func Handler(metrics http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", metrics)
	return mux
}
