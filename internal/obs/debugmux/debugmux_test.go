package debugmux

import (
	"net/http/httptest"
	"strings"
	"testing"

	"pops/internal/obs"
)

func TestHandlerServesPprofAndMetrics(t *testing.T) {
	h := Handler(obs.Registry(func() any {
		return struct {
			N uint64 `metric:"pops_test_total,counter" help:"A test counter."`
		}{7}
	}))
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/metrics"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
		if path == "/metrics" && !strings.Contains(rec.Body.String(), "pops_test_total 7") {
			t.Errorf("GET /metrics did not mirror the metrics handler:\n%s", rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}
