package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"pops/internal/obs"
	"pops/internal/wire"
)

// fillNumbers sets every numeric field reachable from v (through structs and
// slices, not pointers) to a distinct non-zero value, so a merge that drops
// a field, or reads one field into another, shows up as a wrong total.
func fillNumbers(v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNumbers(v.Field(i), next)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillNumbers(v.Index(i), next)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next++
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	case reflect.Float32, reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.5)
	}
}

func asFloat(v reflect.Value) (float64, bool) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(v.Int()), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(v.Uint()), true
	case reflect.Float32, reflect.Float64:
		return v.Float(), true
	}
	return 0, false
}

// checkSummed asserts that every numeric field of got (a struct) equals the
// sum of that field over parts, except the fields named in skip.
func checkSummed(t *testing.T, where string, got any, parts []any, skip ...string) {
	t.Helper()
	gv := reflect.ValueOf(got)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		g, ok := asFloat(gv.Field(i))
		if !ok || slices.Contains(skip, name) {
			continue
		}
		var want float64
		for _, p := range parts {
			x, _ := asFloat(reflect.ValueOf(p).Field(i))
			want += x
		}
		if g != want {
			t.Errorf("%s.%s = %g, want the sum %g", where, name, g, want)
		}
	}
}

func schemaBuckets() []wire.LatencyBucket {
	var h obs.Histogram
	return h.Snapshot()
}

// cannedStats builds one node's /stats snapshot with the given row keys and
// a distinct non-zero value in every numeric field.
func cannedStats(server string, tenants, codecs []string, plans []wire.PlanTimeStat, shards int, next *int) wire.StatsResponse {
	s := wire.StatsResponse{Server: server, Latency: schemaBuckets(), TimeToFirstSlot: schemaBuckets()}
	for _, name := range tenants {
		s.Tenants = append(s.Tenants, wire.TenantStats{Tenant: name})
	}
	for _, c := range codecs {
		s.WireCodecs = append(s.WireCodecs, wire.WireCodecStats{Codec: c})
	}
	for _, p := range plans {
		s.PlanTimes = append(s.PlanTimes, wire.PlanTimeStat{D: p.D, G: p.G, Strategy: p.Strategy, Buckets: schemaBuckets()})
	}
	s.Shards = make([]wire.ShardStats, shards)
	for i := range s.Shards {
		s.Shards[i].Server = server
	}
	fillNumbers(reflect.ValueOf(&s).Elem(), next)
	// Restore what fillNumbers overwrote but is identity, not a counter: the
	// plan-time keys and the shared bucket schema.
	for i, p := range plans {
		s.PlanTimes[i].D, s.PlanTimes[i].G = p.D, p.G
		s.PlanTimes[i].Buckets = restoreSchema(s.PlanTimes[i].Buckets)
	}
	s.Latency = restoreSchema(s.Latency)
	s.TimeToFirstSlot = restoreSchema(s.TimeToFirstSlot)
	return s
}

func restoreSchema(bs []wire.LatencyBucket) []wire.LatencyBucket {
	for i, b := range schemaBuckets() {
		bs[i].LEMicros = b.LEMicros
	}
	return bs
}

// TestProxyStatsMergesEveryField pins the proxy's fleet merge at the HTTP
// seam: two canned backends answer /stats with a distinct non-zero value in
// every numeric field, and the proxy's /stats must sum every counter, take
// the first non-zero tenant weight, count-weight the plan-time EWMA, add
// histograms bucket-wise, concatenate shards, and sort the keyed rows.
func TestProxyStatsMergesEveryField(t *testing.T) {
	next := 0
	a := cannedStats("node-a", []string{"", "c", "a"}, []string{"json", "binary"},
		[]wire.PlanTimeStat{{D: 4, G: 8, Strategy: "theorem2"}, {D: 2, G: 2, Strategy: "theorem2"}}, 2, &next)
	b := cannedStats("node-b", []string{"", "a", "c"}, []string{"ndjson", "json"},
		[]wire.PlanTimeStat{{D: 1, G: 4, Strategy: "theorem2"}, {D: 4, G: 8, Strategy: "theorem2"}}, 1, &next)
	a.Tenants[2].Weight = 0 // tenant "a": the first node reports no weight, so the second's wins

	var urls []string
	for _, snap := range []wire.StatsResponse{a, b} {
		blob, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/stats" {
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write(blob)
				return
			}
			_, _ = w.Write([]byte("ok"))
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	p, err := New(Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	front, _ := serveFront(t, p)
	resp, err := front.Client().Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got wire.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	if got.Server != "popsproxy" {
		t.Errorf("server = %q, want popsproxy", got.Server)
	}
	checkSummed(t, "stats", got, []any{a, b})

	// Keyed rows: one row per key, sorted by key, counters summed.
	wantTenants := []string{"", "a", "c"}
	if len(got.Tenants) != len(wantTenants) {
		t.Fatalf("tenants = %+v, want keys %q", got.Tenants, wantTenants)
	}
	for i, name := range wantTenants {
		row := got.Tenants[i]
		if row.Tenant != name {
			t.Fatalf("tenants[%d] = %q, want %q (sorted)", i, row.Tenant, name)
		}
		var parts []any
		firstWeight := 0.0
		for _, snap := range []wire.StatsResponse{a, b} {
			for _, r := range snap.Tenants {
				if r.Tenant == name {
					parts = append(parts, r)
					if firstWeight == 0 {
						firstWeight = r.Weight
					}
				}
			}
		}
		checkSummed(t, "tenant "+name, row, parts, "Weight")
		if row.Weight != firstWeight {
			t.Errorf("tenant %q weight = %g, want the first non-zero %g", name, row.Weight, firstWeight)
		}
	}
	if got.Tenants[1].Weight != b.Tenants[1].Weight {
		t.Errorf("tenant a weight = %g, want the second node's %g", got.Tenants[1].Weight, b.Tenants[1].Weight)
	}

	wantCodecs := []string{"binary", "json", "ndjson"}
	if len(got.WireCodecs) != len(wantCodecs) {
		t.Fatalf("wire codecs = %+v, want keys %q", got.WireCodecs, wantCodecs)
	}
	for i, name := range wantCodecs {
		row := got.WireCodecs[i]
		if row.Codec != name {
			t.Fatalf("wire_codecs[%d] = %q, want %q (sorted)", i, row.Codec, name)
		}
		var parts []any
		for _, snap := range []wire.StatsResponse{a, b} {
			for _, r := range snap.WireCodecs {
				if r.Codec == name {
					parts = append(parts, r)
				}
			}
		}
		checkSummed(t, "codec "+name, row, parts)
	}

	checkBuckets(t, "latency", got.Latency, a.Latency, b.Latency)
	checkBuckets(t, "time_to_first_slot", got.TimeToFirstSlot, a.TimeToFirstSlot, b.TimeToFirstSlot)

	wantPlans := [][2]int{{1, 4}, {2, 2}, {4, 8}}
	if len(got.PlanTimes) != len(wantPlans) {
		t.Fatalf("plan times = %+v, want keys %v", got.PlanTimes, wantPlans)
	}
	for i, key := range wantPlans {
		row := got.PlanTimes[i]
		if row.D != key[0] || row.G != key[1] || row.Strategy != "theorem2" {
			t.Fatalf("plan_times[%d] = (%d,%d,%s), want (%d,%d,theorem2) (sorted)", i, row.D, row.G, row.Strategy, key[0], key[1])
		}
		var parts []any
		var weighted, count float64
		var buckets [][]wire.LatencyBucket
		for _, snap := range []wire.StatsResponse{a, b} {
			for _, r := range snap.PlanTimes {
				if r.D == key[0] && r.G == key[1] {
					parts = append(parts, r)
					weighted += r.EWMAMicros * float64(r.Count)
					count += float64(r.Count)
					buckets = append(buckets, r.Buckets)
				}
			}
		}
		checkSummed(t, "plan time", row, parts, "D", "G", "EWMAMicros")
		if want := weighted / count; math.Abs(row.EWMAMicros-want) > 1e-9*want {
			t.Errorf("plan (%d,%d) EWMA = %g, want the count-weighted %g", key[0], key[1], row.EWMAMicros, want)
		}
		checkBuckets(t, "plan time buckets", row.Buckets, buckets...)
	}

	wantShards := append(append([]wire.ShardStats(nil), a.Shards...), b.Shards...)
	if !reflect.DeepEqual(got.Shards, wantShards) {
		t.Errorf("shards = %+v, want the concatenation %+v", got.Shards, wantShards)
	}
	// Two nodes can each hold a shard of the same shape, so every
	// concatenated row must keep the name of the node it came from.
	for i, want := range []string{"node-a", "node-a", "node-b"} {
		if i >= len(got.Shards) || got.Shards[i].Server != want {
			t.Errorf("merged shard row %d lost its node name, want %q: %+v", i, want, got.Shards)
			break
		}
	}

	if len(got.Backends) != 2 {
		t.Fatalf("backends = %d entries, want 2", len(got.Backends))
	}
	for i, snap := range []wire.StatsResponse{a, b} {
		bs := got.Backends[i]
		if bs.Server != snap.Server || bs.CacheHits != snap.CacheHits || bs.CacheMisses != snap.CacheMisses {
			t.Errorf("backend %d echo = (%q, %d, %d), want (%q, %d, %d)",
				i, bs.Server, bs.CacheHits, bs.CacheMisses, snap.Server, snap.CacheHits, snap.CacheMisses)
		}
		if bs.Stats == nil || !reflect.DeepEqual(*bs.Stats, snap) {
			t.Errorf("backend %d snapshot = %+v, want the node's own %+v", i, bs.Stats, snap)
		}
	}
}

// checkBuckets asserts got is the bucket-wise sum of parts on the shared
// schema.
func checkBuckets(t *testing.T, where string, got []wire.LatencyBucket, parts ...[]wire.LatencyBucket) {
	t.Helper()
	schema := schemaBuckets()
	if len(got) != len(schema) {
		t.Fatalf("%s: %d buckets, want %d", where, len(got), len(schema))
	}
	for i := range schema {
		var want uint64
		for _, p := range parts {
			want += p[i].Count
		}
		if got[i].LEMicros != schema[i].LEMicros || got[i].Count != want {
			t.Errorf("%s[%d] = %+v, want {le %d, count %d}", where, i, got[i], schema[i].LEMicros, want)
		}
	}
}
