package cluster

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"pops"
	"pops/internal/service"
)

// proxyMetricsGoldenPath pins the proxy's /metrics schema: every HELP and
// TYPE line verbatim, and every series name with its label keys. Label
// values are masked (backend IDs carry random test ports) and sample values
// dropped. A diff means a family, help text or label key changed — review
// deliberately and regenerate with REGEN_GOLDEN=1.
const proxyMetricsGoldenPath = "testdata/proxy_metrics_golden.txt"

var labelValue = regexp.MustCompile(`="(?:[^"\\]|\\.)*"`)

// proxyMetricsSchema reduces an exposition to its sorted, de-duplicated
// schema lines.
func proxyMetricsSchema(text string) []string {
	seen := make(map[string]bool)
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = labelValue.ReplaceAllString(line[:strings.LastIndex(line, " ")], "")
		}
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	}
	sort.Strings(lines)
	return lines
}

func TestProxyMetricsGolden(t *testing.T) {
	p, _, _ := fleet(t, 2, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	_, client := serveFront(t, p)
	const d, g = 4, 8
	if _, err := client.Execute(t.Context(), d, g, pops.Permutation(pops.VectorReversal(d*g))); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := strings.Join(proxyMetricsSchema(rec.Body.String()), "\n") + "\n"
	if os.Getenv("REGEN_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(proxyMetricsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(proxyMetricsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(proxyMetricsGoldenPath)
	if err != nil {
		t.Fatalf("read golden (REGEN_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("proxy /metrics schema changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
