package pops

import (
	"context"
	"fmt"
	"time"
)

// OverloadError is the typed verdict of an admission-control rejection: the
// serving side (a popsserved shard queue, its stream cap, or a popsproxy
// concurrency limit) chose to shed this request rather than queue it beyond
// its bound. It travels over the wire as HTTP 429 + Retry-After, and
// ServiceClient reconstructs it on the other side, so errors.As works across
// process boundaries exactly as it does in-process.
//
// An overload is not a failure of the request itself: the same workload
// retried after RetryAfter — or against a sibling node — is expected to
// succeed. That distinction is what the proxy's 429-aware failover and the
// client's backoff retries key on.
type OverloadError struct {
	// D, G identify the shard's shape when the shedding layer knows it
	// (zero when a proxy-level limit rejected before placement).
	D, G int
	// Tenant is the admission tenant the rejection was charged to, when the
	// request carried one.
	Tenant string
	// Queue names the bound that rejected: "admission" (the micro-batch
	// queue), "stream" (the per-shard concurrent-stream cap), "direct" (the
	// non-batched workload/strategy path), or "backend" (a proxy-side
	// per-backend concurrency limit).
	Queue string
	// RetryAfter is the server's backoff hint: how long the shedding layer
	// expects to need before it can admit again.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	msg := "pops: overloaded"
	if e.Queue != "" {
		msg += ": " + e.Queue + " queue full"
	}
	if e.D > 0 && e.G > 0 {
		msg += fmt.Sprintf(" on POPS(%d, %d)", e.D, e.G)
	}
	if e.Tenant != "" {
		msg += fmt.Sprintf(" (tenant %q)", e.Tenant)
	}
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf(": retry after %s", e.RetryAfter)
	}
	return msg
}

// tenantCtxKey carries a caller's admission tenant through a context.
type tenantCtxKey struct{}

// ContextWithTenant returns a context that makes ServiceClient calls carry
// tenant as the X-Tenant header. The serving side charges the request to
// that tenant's weighted admission quota and its per-tenant fairness
// counters in /stats and /metrics; requests without a tenant share the
// default quota under the empty tenant name.
func ContextWithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFromContext returns the tenant attached by ContextWithTenant, or "".
func TenantFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	t, _ := ctx.Value(tenantCtxKey{}).(string)
	return t
}
