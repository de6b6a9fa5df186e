// Package wire defines the JSON schema spoken between the popsserved
// routing service (internal/service, cmd/popsserved) and the pops
// ServiceClient. It holds only data types — no server or client logic — so
// that both sides can import it without a dependency cycle: the service
// imports the public pops package for planning, and the public package
// imports wire for the client.
//
// Fingerprints travel as zero-padded hex strings ("%016x"), not JSON
// numbers: a uint64 does not survive the float64 round-trip of generic JSON
// decoders.
package wire

import (
	"fmt"
	"strconv"
	"time"

	"pops/internal/core"
	"pops/internal/obs"
	"pops/internal/popsnet"
)

// Overload-control headers shared by client, service, and proxy.
const (
	// HeaderDeadline carries the caller's absolute deadline across process
	// boundaries as microseconds since the Unix epoch (see EncodeDeadline).
	// The receiving tier derives its request context's deadline from it, so
	// a queued request whose caller has already given up is shed before it
	// consumes a planner worker.
	HeaderDeadline = "X-Deadline"
	// HeaderTenant names the admission tenant of a request. The body field
	// RouteRequest.Tenant wins when both are set; the header exists so
	// GET-style calls and proxies can tag without rewriting bodies.
	HeaderTenant = "X-Tenant"
	// HeaderRetryAfterMs refines the standard Retry-After header (whole
	// seconds, rounded up) with the server's millisecond-precision backoff
	// hint on 429 responses.
	HeaderRetryAfterMs = "X-Retry-After-Ms"
	// HeaderOverloadQueue names which bound shed the request ("admission",
	// "stream", "direct", "backend"), so clients reconstruct the typed
	// *pops.OverloadError instead of string-matching the body.
	HeaderOverloadQueue = "X-Overload-Queue"
)

// EncodeDeadline renders an absolute deadline for HeaderDeadline.
func EncodeDeadline(t time.Time) string {
	return strconv.FormatInt(t.UnixMicro(), 10)
}

// ParseDeadline decodes a HeaderDeadline value.
func ParseDeadline(s string) (time.Time, error) {
	us, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("wire: deadline header %q is not unix microseconds", s)
	}
	return time.UnixMicro(us), nil
}

// Workload kind tags of the tagged request schema, mirroring the
// pops.Workload constructors. An empty workload field means "permutation".
const (
	WorkloadPermutation       = "permutation"
	WorkloadHRelation         = "hrelation"
	WorkloadAllToAll          = "all-to-all"
	WorkloadOneToAll          = "one-to-all"
	WorkloadFaultyPermutation = "faulty-permutation"
)

// KindTag is a workload kind's tag on the wire and in trace spans:
// permutations travel untagged (""), the original schema, and every other
// kind under its own name.
func KindTag(kind string) string {
	if kind == WorkloadPermutation {
		return ""
	}
	return kind
}

// KindUndecoded tags the trace span of a proxied request whose workload did
// not decode, so a client's unknown kind string never lands in a slow ring.
const KindUndecoded = "undecoded"

// Coupler names one coupler c(b, a) of a fault set: destination group B,
// source group A.
type Coupler struct {
	B int `json:"b"`
	A int `json:"a"`
}

// FaultSet is the wire form of pops.FaultSet: the dead couplers and dead
// groups a faulty-permutation workload must route around.
type FaultSet struct {
	Couplers []Coupler `json:"couplers,omitempty"`
	Groups   []int     `json:"groups,omitempty"`
}

// UnroutableInfo carries the typed planning failure of a faulty-permutation
// workload whose fault set severs some source/destination pair. It rides in
// PlanResult next to the rendered Error text, so clients can reconstruct a
// *pops.UnroutableError instead of string-matching.
type UnroutableInfo struct {
	Packet     int  `json:"packet"`
	SrcGroup   int  `json:"src_group"`
	DstGroup   int  `json:"dst_group"`
	SeveredSrc bool `json:"severed_src,omitempty"`
	SeveredDst bool `json:"severed_dst,omitempty"`
}

// Request is one packet demand of an h-relation workload: move a packet
// from Src to Dst. It is the planner's own type, so a decoded request list
// is planned without a copy.
type Request = core.Request

// RouteRequest is the body of POST /route and POST /route/stream: one
// workload to plan on POPS(D, G). Workload selects the kind ("" means
// "permutation"): permutation workloads carry one permutation (Pi) or — on
// /route only — a batch (Pis); hrelation workloads carry Requests; all-to-all
// needs no payload; one-to-all carries Speaker.
type RouteRequest struct {
	D int `json:"d"`
	G int `json:"g"`
	// Workload tags the request kind (WorkloadPermutation, ...). Empty
	// means WorkloadPermutation, the original untagged schema.
	Workload string `json:"workload,omitempty"`
	// Tenant names the admission tenant this request is charged to (the
	// TenantMix workload model): each tenant holds a weighted-fair share of
	// every shard's admission queue, and /stats reports per-tenant admitted
	// and shed counters. Empty requests share the default quota. The
	// X-Tenant header is a fallback for callers that cannot edit bodies.
	Tenant string `json:"tenant,omitempty"`
	// Pi is the single-permutation form; the response carries one plan.
	Pi []int `json:"pi,omitempty"`
	// Pis is the batch form; the response carries one plan per entry, in
	// order.
	Pis [][]int `json:"pis,omitempty"`
	// Requests is the h-relation form: the packet demands to deliver.
	Requests []Request `json:"requests,omitempty"`
	// Speaker is the broadcasting processor of a one-to-all workload.
	Speaker int `json:"speaker,omitempty"`
	// Faults is the fault set of a faulty-permutation workload (which carries
	// its permutation in Pi). Nil or empty means no faults: the plan is then
	// byte-identical to the plain permutation plan.
	Faults *FaultSet `json:"faults,omitempty"`
	// Strategy is validated input: the service plans Theorem 2 only, so it
	// accepts "" and "theorem2" and answers any other value with 400 —
	// never silently with a Theorem 2 plan. The baselines (greedy,
	// direct-optimal, singleslot, auto) run in-process behind popsroute
	// -strategy.
	Strategy string `json:"strategy,omitempty"`
	// IncludeSchedule asks for the full slot schedule in each plan, so the
	// caller can replay it on a simulator. Off by default: schedules are
	// O(n) per slot and most callers only need the summary.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
}

// PlanResult is one planned permutation of a RouteResponse. Either Error is
// set (and the rest is zero), or the plan fields are.
type PlanResult struct {
	Strategy string `json:"strategy,omitempty"`
	// Workload tags the kind of plan (WorkloadPermutation, ...); empty for
	// permutation plans, preserving the original schema.
	Workload string `json:"workload,omitempty"`
	Slots    int    `json:"slots,omitempty"`
	Rounds   int    `json:"rounds,omitempty"`
	// H is the relation degree of an h-relation or all-to-all plan.
	H           int    `json:"h,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Cached reports that this plan was answered from the shard's
	// fingerprint plan cache rather than replanned.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Unroutable refines Error for faulty-permutation workloads whose fault
	// set severs a group pair — the one typed planning failure of the kind.
	Unroutable *UnroutableInfo   `json:"unroutable,omitempty"`
	Schedule   *popsnet.Schedule `json:"schedule,omitempty"`
}

// RouteResponse is the body answering POST /route.
type RouteResponse struct {
	D int `json:"d"`
	G int `json:"g"`
	// RequestID echoes the request's X-Request-Id header (client-supplied or
	// server-generated), the key correlating this response with /debug/slow
	// phase breakdowns and proxy-side failover labels.
	RequestID string       `json:"request_id,omitempty"`
	Plans     []PlanResult `json:"plans"`
}

// StreamRecord is one line of the POST /route/stream NDJSON response. The
// server emits exactly one "meta" record first, then "slot" records as the
// planner peels color classes — flushed individually, so slots reach the
// client while later factors are still being computed — and finally one
// "done" record (or one "error" record if planning failed mid-stream).
// Exactly one of Meta, Slot, Done and Error is set, matching Type.
type StreamRecord struct {
	Type  string      `json:"type"` // "meta", "slot", "done" or "error"
	Meta  *StreamMeta `json:"meta,omitempty"`
	Slot  *StreamSlot `json:"slot,omitempty"`
	Done  *StreamDone `json:"done,omitempty"`
	Error string      `json:"error,omitempty"`
}

// StreamMeta opens a slot stream: the shape, the total schedule slot count
// (known before any slot is computed), how many slot records will follow,
// and whether the stream replays a fingerprint-cache hit (whole-slot
// records) or is planned incrementally (one record per color class).
type StreamMeta struct {
	D int `json:"d"`
	G int `json:"g"`
	// Workload tags the kind of plan being streamed; empty for permutation
	// streams, preserving the original schema.
	Workload    string `json:"workload,omitempty"`
	Slots       int    `json:"slots"`
	Fragments   int    `json:"fragments"`
	Strategy    string `json:"strategy"`
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached,omitempty"`
	// RequestID echoes the stream's X-Request-Id, mirroring
	// RouteResponse.RequestID for the NDJSON path.
	RequestID string `json:"request_id,omitempty"`
}

// StreamSlot is one streamed fragment of the schedule: the sends and recvs
// that one relay color class contributes to slot Slot, starting Offset
// entries into the slot. Fragments of one slot tile it exactly; Final
// marks its last fragment. Color is -1 for whole-slot fragments (cache-hit
// replays and the single slot of a d = 1 plan). Fragments of different slots may
// interleave, and fragments within a slot may arrive out of Offset order;
// reassemble by (Slot, Offset) to recover the batch-identical schedule.
type StreamSlot struct {
	Slot   int            `json:"slot"`
	Color  int            `json:"color"`
	Offset int            `json:"offset"`
	Final  bool           `json:"final,omitempty"`
	Sends  []popsnet.Send `json:"sends"`
	Recvs  []popsnet.Recv `json:"recvs"`
}

// StreamDone closes a successful slot stream.
type StreamDone struct {
	Slots     int `json:"slots"`
	Fragments int `json:"fragments"`
}

// SlotsResponse answers GET /slots?d=&g=: the Theorem 2 slot count every
// permutation on that shape routes in.
type SlotsResponse struct {
	D     int `json:"d"`
	G     int `json:"g"`
	Slots int `json:"slots"`
}

// CacheStats mirrors pops.CacheStats for one shard's plan cache.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries" metric:"pops_shard_cache_entries,gauge" help:"Fingerprint plan-cache entries per live shard."`
	Capacity  int    `json:"capacity"`
}

// ShardStats describes one live planner shard.
type ShardStats struct {
	// Server names the node the shard lives on (its StatsResponse.Server),
	// so rows stay attributable after a proxy concatenates the fleet's.
	Server   string `json:"server,omitempty"`
	D        int    `json:"d" label:"d"`
	G        int    `json:"g" label:"g"`
	Requests uint64 `json:"requests" metric:"pops_shard_requests_total,counter" help:"Requests admitted per live shard."`
	// Streams counts /route/stream requests admitted by this shard. They
	// bypass the micro-batching queue: each stream owns a worker planner
	// and delivers slot fragments while the queue keeps admitting.
	Streams uint64 `json:"streams,omitempty"`
	// Batches and BatchedRequests describe the micro-batching admission
	// queue: BatchedRequests/Batches is the mean coalesced batch size, and
	// MaxBatch the largest flush observed.
	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batched_requests"`
	MaxBatch        uint64 `json:"max_batch"`
	// QueueLen/QueueCap snapshot the bounded admission queue: entries
	// waiting for a micro-batch flush against the configured depth.
	QueueLen int `json:"queue_len,omitempty" metric:"pops_shard_queue_len,gauge" help:"Admission-queue occupancy per live shard."`
	QueueCap int `json:"queue_cap,omitempty"`
	// Sheds counts admissions this shard rejected with an overload verdict
	// (queue full, tenant quota, stream cap); DeadlineSheds the queued
	// entries dropped at flush because their deadline had already passed.
	Sheds         uint64 `json:"sheds,omitempty" metric:"pops_shard_sheds_total,counter" help:"Overload rejections per live shard."`
	DeadlineSheds uint64 `json:"deadline_sheds,omitempty"`
	// ActiveStreams is the number of open slot streams held against the
	// shard's concurrent-stream cap.
	ActiveStreams int64      `json:"active_streams,omitempty"`
	Cache         CacheStats `json:"cache"`
}

// TenantStats is one tenant's admission-fairness ledger: its configured
// weight and how many of its requests were admitted or shed.
type TenantStats struct {
	// Tenant is the tenant name; "" reports the default (untagged) tenant.
	// On /metrics it scrapes as tenant="default".
	Tenant string `json:"tenant" label:"tenant,empty=default"`
	// Weight is the tenant's configured admission weight (1 when unset).
	// Weights are configuration, identical across a correctly deployed
	// fleet, so the fleet merge keeps the first node's.
	Weight float64 `json:"weight,omitempty" merge:"first" metric:"pops_tenant_weight,gauge" help:"Configured admission weight per tenant."`
	// Admitted counts requests accepted into a shard queue, stream slot, or
	// direct-execution slot under this tenant.
	Admitted uint64 `json:"admitted" merge:"sum" metric:"pops_tenant_admitted_total,counter" help:"Requests admitted per tenant (TenantMix fairness ledger)."`
	// Shed counts requests rejected with an overload verdict (429).
	Shed uint64 `json:"shed" merge:"sum" metric:"pops_tenant_shed_total,counter" help:"Requests shed per tenant with an overload verdict."`
	// DeadlineShed counts queued requests dropped because their propagated
	// deadline expired before a planner worker picked them up.
	DeadlineShed uint64 `json:"deadline_shed,omitempty" merge:"sum" metric:"pops_tenant_deadline_shed_total,counter" help:"Queued requests dropped per tenant on an expired deadline."`
}

// Codec names used in WireCodecStats.Codec and the wire_codec metric label.
const (
	CodecJSON   = "json"
	CodecNDJSON = "ndjson"
	CodecBinary = "binary"
)

// WireCodecStats is one response codec's wire-path ledger: how many unary
// /route responses and /route/stream streams were answered in that codec,
// and how many stream bytes were flushed. Codec names are "json" (unary
// JSON), "ndjson" (NDJSON stream records, the default/debug surface), and
// "binary" (the length-prefixed application/x-pops-bin framing).
type WireCodecStats struct {
	Codec         string `json:"codec" label:"wire_codec"`
	Requests      uint64 `json:"requests,omitempty" merge:"sum" metric:"pops_wire_requests_total,counter" help:"Unary /route responses by negotiated wire codec."`
	Streams       uint64 `json:"streams,omitempty" merge:"sum" metric:"pops_wire_streams_total,counter" help:"/route/stream responses by negotiated wire codec."`
	StreamedBytes uint64 `json:"streamed_bytes,omitempty" merge:"sum" metric:"pops_wire_streamed_bytes_total,counter" help:"Bytes flushed over /route/stream by negotiated wire codec."`
}

// LatencyBucket is one bucket of the request-latency histogram: Count
// requests completed in at most LEMicros microseconds (and more than the
// previous bucket's bound). The final bucket has LEMicros == 0, meaning
// "no upper bound". It aliases obs.Bucket so service histograms snapshot
// straight onto the wire.
type LatencyBucket = obs.Bucket

// PlanTimeStat is one per-(d, g, strategy) plan-time entry of
// StatsResponse.PlanTimes: observation count, cache hits, EWMA, and a
// latency histogram of measured planning time.
type PlanTimeStat = obs.PlanTimeStat

// SlowRequest is one retained slow request with its full phase breakdown,
// served by GET /debug/slow.
type SlowRequest = obs.SpanSnapshot

// SlowResponse answers GET /debug/slow: the slowest retained requests,
// slowest first.
type SlowResponse struct {
	// Server identifies the answering node, mirroring StatsResponse.Server.
	Server   string        `json:"server,omitempty"`
	Requests []SlowRequest `json:"requests"`
}

// StatsResponse answers GET /stats: service-wide counters plus one entry per
// live shard. CacheHits/CacheMisses aggregate over live and evicted shards.
//
// A single popsserved node fills Server with its own identity and leaves
// Backends empty. A popsproxy front door answers the same endpoint with the
// fleet aggregate — counters summed, latency histograms merged bucket-wise,
// shard entries concatenated — and one Backends entry per node, so a caller
// reading /stats cannot tell one machine from a fleet unless it asks.
type StatsResponse struct {
	// Server identifies the answering node (its -name flag or listen
	// address); a proxy reports "popsproxy".
	Server        string `json:"server,omitempty"`
	ShardCount    int    `json:"shard_count" merge:"sum" metric:"pops_shards,gauge" help:"Live planner shards (distinct POPS shapes)."`
	MaxShards     int    `json:"max_shards" merge:"sum"`
	EvictedShards uint64 `json:"evicted_shards" merge:"sum" metric:"pops_evicted_shards_total,counter" help:"Planner shards evicted by the shard LRU."`
	Requests      uint64 `json:"requests" merge:"sum" metric:"pops_requests_total,counter" help:"Routing requests admitted (batch entries counted individually)."`
	Streams       uint64 `json:"streams" merge:"sum" metric:"pops_streams_total,counter" help:"Streaming plan requests admitted."`
	StreamedSlots uint64 `json:"streamed_slots" merge:"sum" metric:"pops_streamed_slots_total,counter" help:"Slot records flushed over /route/stream."`
	CacheHits     uint64 `json:"cache_hits" merge:"sum" metric:"pops_cache_hits_total,counter" help:"Fingerprint plan-cache hits, including evicted shards."`
	CacheMisses   uint64 `json:"cache_misses" merge:"sum" metric:"pops_cache_misses_total,counter" help:"Fingerprint plan-cache misses, including evicted shards."`
	// FaultPlans counts faulty-permutation workloads served; Unroutable
	// counts the subset rejected with a typed unroutable verdict.
	FaultPlans uint64 `json:"fault_plans,omitempty" merge:"sum" metric:"pops_fault_plans_total,counter" help:"Faulty-permutation workloads served."`
	Unroutable uint64 `json:"unroutable,omitempty" merge:"sum" metric:"pops_unroutable_total,counter" help:"Fault workloads rejected as unroutable."`
	// Sheds counts requests rejected with an overload verdict (429);
	// DeadlineSheds the queued entries dropped because their propagated
	// deadline expired before planning started. Both are included in
	// neither Requests' successes nor the latency histogram.
	Sheds         uint64 `json:"sheds,omitempty" merge:"sum" metric:"pops_sheds_total,counter" help:"Requests shed with an overload verdict (HTTP 429)."`
	DeadlineSheds uint64 `json:"deadline_sheds,omitempty" merge:"sum" metric:"pops_deadline_sheds_total,counter" help:"Queued requests dropped because their propagated deadline expired."`
	// Tenants is the per-tenant fairness ledger, sorted by tenant name.
	Tenants []TenantStats `json:"tenants,omitempty" merge:"keyed"`
	// WireCodecs breaks the wire path down by negotiated response codec
	// ("json", "ndjson", "binary"); a single node lists them in that order,
	// a proxy's fleet merge sorts them by codec name.
	WireCodecs []WireCodecStats `json:"wire_codecs,omitempty" merge:"keyed"`
	// Latency is the request-latency histogram; LatencySumMicros the total
	// latency it observed.
	Latency          []LatencyBucket `json:"latency" merge:"buckets" metric:"pops_request_latency_seconds,histogram" sum:"LatencySumMicros" help:"End-to-end request latency (traced requests observe their span total)."`
	LatencySumMicros float64         `json:"latency_sum_us,omitempty" merge:"sum"`
	// TimeToFirstSlot is the streaming analogue of Latency: time from
	// stream admission until the first slot fragment was ready to flush.
	TimeToFirstSlot          []LatencyBucket `json:"time_to_first_slot" merge:"buckets" metric:"pops_time_to_first_slot_seconds,histogram" sum:"TimeToFirstSlotSumMicros" help:"Admission to first streamed slot record."`
	TimeToFirstSlotSumMicros float64         `json:"time_to_first_slot_sum_us,omitempty" merge:"sum"`
	// PlanTimes is the per-(d, g, strategy) measured plan-time table: EWMAs
	// and histograms of actual planning work (cache hits counted
	// separately), sorted by key. The service itself reads the live EWMA
	// for its Retry-After hint on overload verdicts. A proxy answers with
	// the fleet merge: counts summed, EWMAs count-weighted, buckets merged
	// bucket-wise.
	PlanTimes []PlanTimeStat `json:"plan_times,omitempty" merge:"keyed"`
	Shards    []ShardStats   `json:"shards" merge:"concat"`
	// Backends is the per-node breakdown of a fleet aggregate: one entry
	// per configured backend, present only when a proxy answered. The
	// proxy's /metrics renders these rows itself.
	Backends []BackendStats `json:"backends,omitempty" metric:"-"`
}

// BackendStats describes one popsserved node behind a popsproxy front door:
// the proxy's own per-backend counters plus the node's self-reported /stats
// snapshot (nil when the node was unreachable at snapshot time). The
// proxy's /metrics renders one row per backend, and the total tags declare
// the fleet-wide sums over those rows.
type BackendStats struct {
	// ID is the backend's base URL on the proxy's ring.
	ID string `json:"id" label:"backend"`
	// Server echoes the node's self-reported identity (StatsResponse.Server).
	Server string `json:"server,omitempty"`
	// Healthy reports the proxy's current health verdict for the node.
	Healthy bool `json:"healthy" metric:"pops_proxy_backend_healthy,gauge" help:"Whether the backend is admitted to placement (1) or ejected (0)." total:"pops_fleet_healthy_backends" totalhelp:"Backends currently admitted to placement."`
	// Requests and Streams count what the proxy placed on this node.
	Requests uint64 `json:"requests" metric:"pops_proxy_backend_requests_total,counter" help:"Requests placed on the backend." total:"pops_fleet_requests_total" totalhelp:"Requests the proxy placed, summed across backends."`
	Streams  uint64 `json:"streams" metric:"pops_proxy_backend_streams_total,counter" help:"Slot streams placed on the backend." total:"pops_fleet_streams_total" totalhelp:"Slot streams the proxy placed, summed across backends."`
	// Failovers counts requests that left this node for the next ring owner
	// after a connection error; Errors counts connection errors observed.
	Failovers uint64 `json:"failovers" metric:"pops_proxy_backend_failovers_total,counter" help:"Requests that left the backend for the next ring owner." total:"pops_fleet_failovers_total" totalhelp:"Placements that left their ring owner for a successor."`
	Errors    uint64 `json:"errors" metric:"pops_proxy_backend_errors_total,counter" help:"Connection errors observed on the backend." total:"pops_fleet_errors_total" totalhelp:"Connection errors observed across backends."`
	// Ejections counts healthy→unhealthy transitions: how often the proxy
	// ejected this node from the ring (health-probe failures or consecutive
	// request errors crossing the threshold).
	Ejections uint64 `json:"ejections,omitempty" metric:"pops_proxy_backend_ejections_total,counter" help:"Healthy-to-ejected transitions of the backend." total:"pops_fleet_ejections_total" totalhelp:"Healthy-to-ejected backend transitions."`
	// Sheds counts overload verdicts (429) the proxy observed from this
	// node or imposed on its behalf (the per-backend concurrency limit).
	Sheds uint64 `json:"sheds,omitempty" metric:"pops_proxy_backend_sheds_total,counter" help:"Overload verdicts observed on the backend (429s plus proxy-cap skips)." total:"pops_fleet_sheds_total" totalhelp:"Overload verdicts observed across backends (429s plus proxy-cap skips)."`
	// Inflight is the number of proxied forwards currently on the node.
	Inflight int64 `json:"inflight,omitempty" metric:"pops_proxy_backend_inflight,gauge" help:"Proxied forwards currently in flight on the backend."`
	// BreakerState is the proxy's circuit-breaker verdict for the node:
	// "closed" (serving), "open" (tripped, excluded from placement until
	// the cooldown), or "half-open" (probing with one trial request).
	BreakerState string `json:"breaker_state,omitempty" metric:"pops_proxy_backend_breaker_state,gauge" enum:"closed|half-open|open" help:"Circuit-breaker state: 0 closed, 1 half-open, 2 open."`
	// BreakerOpens counts closed→open breaker transitions.
	BreakerOpens uint64 `json:"breaker_opens,omitempty" metric:"pops_proxy_backend_breaker_opens_total,counter" help:"Circuit-breaker open transitions of the backend." total:"pops_fleet_breaker_opens_total" totalhelp:"Circuit-breaker open transitions across backends."`
	// LatencyEWMAMicros is the proxy's forward-latency EWMA for the node,
	// the input of the breaker's latency trip.
	LatencyEWMAMicros float64 `json:"latency_ewma_us,omitempty" metric:"pops_proxy_backend_latency_ewma_seconds,gauge" unit:"us" help:"Forward-latency EWMA of the backend (alpha 0.2)."`
	// CacheHits/CacheMisses echo the node's own totals, so per-node cache
	// affinity is visible without fetching every node's /stats.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Stats is the node's full /stats snapshot; nil if unreachable.
	Stats *StatsResponse `json:"stats,omitempty"`
}
