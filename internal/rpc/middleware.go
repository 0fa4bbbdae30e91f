package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/saml"
	"repro/internal/soap"
	"repro/internal/xmlutil"
)

// AssertionVerifier abstracts how a provider reaches the Authentication
// Service: in-process (authsvc.LocalVerifier) or over SOAP
// (authsvc.Client). Declared here structurally so the kernel does not
// depend on the authsvc package it also hosts.
type AssertionVerifier interface {
	// Verify returns the authenticated principal, or an error.
	Verify(a *saml.Assertion) (string, error)
}

// RequireAssertion enforces the Figure 2 protocol: every request must
// carry a SAML assertion the Authentication Service accepts; the verified
// principal lands in the request context. Denials are relayed as Client
// faults (the caller, not the service, is at fault) carrying the
// portal-standard AuthenticationFailed detail.
func RequireAssertion(v AssertionVerifier) core.Middleware {
	return func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			a, err := saml.FromEnvelope(ctx.Envelope)
			if err != nil {
				return nil, authFault(soap.ErrCodeBadRequest, "malformed assertion: %v", err)
			}
			if a == nil {
				return nil, authFault(soap.ErrCodeAuthFailed, "request carries no SAML assertion")
			}
			principal, err := v.Verify(a)
			if err != nil {
				return nil, authFault(soap.ErrCodeAuthFailed, "assertion rejected: %v", err)
			}
			ctx.Principal = principal
			return next(ctx, args)
		}
	}
}

// authFault builds a Client fault relaying a portal-standard error detail,
// so clients both see the SOAP-level blame (Client) and can decode the
// portal error code.
func authFault(code, format string, a ...interface{}) *soap.Fault {
	pe := soap.NewPortalError("SPP", code, format, a...)
	return &soap.Fault{
		Code:   soap.FaultClient,
		String: pe.Message,
		Detail: []*xmlutil.Element{pe.Element()},
	}
}

// Recover converts a panicking handler into a SOAP Server fault instead of
// tearing down the provider goroutine, keeping one bad request from
// killing the server.
func Recover() core.Middleware {
	return func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) (vals []soap.Value, err error) {
			defer func() {
				if r := recover(); r != nil {
					vals = nil
					err = &soap.Fault{
						Code:   soap.FaultServer,
						String: fmt.Sprintf("panic in %s: %v", ctx.Operation, r),
					}
				}
			}()
			return next(ctx, args)
		}
	}
}

// Logging emits one structured line per request: namespace, operation,
// principal, duration, and outcome. A nil logger uses the process default.
func Logging(l *log.Logger) core.Middleware {
	if l == nil {
		l = log.Default()
	}
	return func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			start := time.Now()
			vals, err := next(ctx, args)
			outcome := "ok"
			if err != nil {
				if pe := soap.AsPortalError(err); pe != nil {
					outcome = pe.Code
				} else {
					outcome = "fault"
				}
			}
			principal := ctx.Principal
			if principal == "" {
				principal = "-"
			}
			l.Printf("rpc ns=%s op=%s principal=%s dur=%s outcome=%s",
				ctx.ServiceNS, ctx.Operation, principal, time.Since(start).Round(time.Microsecond), outcome)
			return vals, err
		}
	}
}

// OpStats is the accumulated view of one operation.
type OpStats struct {
	// Count is the number of completed requests.
	Count uint64 `json:"count"`
	// Errors counts requests that ended in any error or fault.
	Errors uint64 `json:"errors"`
	// TotalNS and MaxNS accumulate handler latency.
	TotalNS int64 `json:"totalNs"`
	MaxNS   int64 `json:"maxNs"`
}

// DecodeStats counts the requests the streaming reader decoded for the
// chains one Stats collector records. It is the only request decoder, so
// TreePath, kept for readers of the /healthz shape, is always 0.
type DecodeStats struct {
	// FastPath counts requests decoded by the streaming reader.
	FastPath uint64 `json:"fastPath"`
	// TreePath is always 0: no request is decoded through a tree.
	TreePath uint64 `json:"treePath"`
}

// opCounters is the lock-free accumulator behind one operation: plain
// atomics for the monotonic counters and a CAS loop for the latency
// high-water mark. Recording a request takes no lock at all, so stats
// collection never serialises concurrent requests.
type opCounters struct {
	count   atomic.Uint64
	errors  atomic.Uint64
	totalNS atomic.Int64
	maxNS   atomic.Int64
}

// snapshot reads the counters individually; under concurrent recording the
// fields may straddle an in-flight request (count without its totalNS yet),
// which is consistent enough for a health endpoint.
func (c *opCounters) snapshot() OpStats {
	return OpStats{
		Count:   c.count.Load(),
		Errors:  c.errors.Load(),
		TotalNS: c.totalNS.Load(),
		MaxNS:   c.maxNS.Load(),
	}
}

// Stats counts requests and accumulates latency per operation, and serves
// the snapshot as a /healthz-style JSON endpoint. Recording is lock-free:
// per-operation accumulators live in a sync.Map (populated once per
// operation, read thereafter) and all counters are atomics.
type Stats struct {
	start   time.Time
	ops     sync.Map // "ns#op" -> *opCounters
	decoded atomic.Uint64

	// inFlight gauges requests currently inside the middleware chain;
	// graceful drain waits on it reaching zero via WaitIdle.
	inFlight atomic.Int64
	// idleMu guards idleCh, the drain signal WaitIdle parks on: created
	// lazily by a waiter, closed by the request that takes the gauge to
	// zero. The gauge itself stays lock-free — the mutex is touched only
	// on the zero crossing and while a drain is actually waiting.
	idleMu sync.Mutex
	idleCh chan struct{}
	// timeouts counts requests answered with the portal Timeout fault,
	// shed those rejected ServerBusy, drained those rejected while the
	// server was draining (ServiceUnavailable).
	timeouts atomic.Uint64
	shed     atomic.Uint64
	drained  atomic.Uint64

	// cachesMu guards cache registration (startup-time only); reads copy
	// the slice header under the lock.
	cachesMu sync.Mutex
	caches   []namedCache

	// resilMu guards breaker/retry registration (wiring-time only).
	resilMu  sync.Mutex
	breakers []namedBreakers
	retries  []namedRetry

	// counters holds ad-hoc named counters (AddCounter) surfaced in the
	// health document — failure classes that belong to no one operation,
	// such as the gateway's relay.write_errors. Lock-free: name ->
	// *atomic.Uint64, populated once per name.
	counters sync.Map
}

type namedCache struct {
	name  string
	cache *ResponseCache
}

type namedBreakers struct {
	name string
	set  *resilience.BreakerSet
}

type namedRetry struct {
	name   string
	policy *resilience.RetryPolicy
}

// NewStats returns an empty stats collector.
func NewStats() *Stats {
	return &Stats{start: time.Now()}
}

// AddCounter increments the named ad-hoc counter, creating it on first use.
// Safe for concurrent use from hot paths: after the first increment of a
// name this is one sync.Map read plus one atomic add.
func (s *Stats) AddCounter(name string, delta uint64) {
	c, ok := s.counters.Load(name)
	if !ok {
		c, _ = s.counters.LoadOrStore(name, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(delta)
}

// Counter returns the named ad-hoc counter's current value (0 if it was
// never incremented).
func (s *Stats) Counter(name string) uint64 {
	c, ok := s.counters.Load(name)
	if !ok {
		return 0
	}
	return c.(*atomic.Uint64).Load()
}

// CounterSnapshot returns every ad-hoc counter, for the health document.
func (s *Stats) CounterSnapshot() map[string]uint64 {
	out := map[string]uint64{}
	s.counters.Range(func(k, v interface{}) bool {
		out[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	return out
}

// RegisterCache exposes a ResponseCache's hit/miss/entry counters in the
// health document under the given name. Call at wiring time, once per
// cache.
func (s *Stats) RegisterCache(name string, c *ResponseCache) {
	s.cachesMu.Lock()
	defer s.cachesMu.Unlock()
	s.caches = append(s.caches, namedCache{name: name, cache: c})
}

// RegisterBreakers exposes a client-side breaker set's per-endpoint
// circuit states in the health document. Call at wiring time.
func (s *Stats) RegisterBreakers(name string, set *resilience.BreakerSet) {
	s.resilMu.Lock()
	defer s.resilMu.Unlock()
	s.breakers = append(s.breakers, namedBreakers{name: name, set: set})
}

// RegisterRetry exposes a retry policy's granted-retry counter in the
// health document. Call at wiring time.
func (s *Stats) RegisterRetry(name string, p *resilience.RetryPolicy) {
	s.resilMu.Lock()
	defer s.resilMu.Unlock()
	s.retries = append(s.retries, namedRetry{name: name, policy: p})
}

// CacheStats is one registered cache's counters as served by /healthz.
// Misses count declined ones too: Declined is the misses admission did not
// store (ResponseCache.Declined).
type CacheStats struct {
	Name     string `json:"name"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Declined uint64 `json:"declined"`
	Entries  int    `json:"entries"`
}

// CacheSnapshot reports the registered caches in registration order.
func (s *Stats) CacheSnapshot() []CacheStats {
	s.cachesMu.Lock()
	caches := s.caches
	s.cachesMu.Unlock()
	out := make([]CacheStats, 0, len(caches))
	for _, nc := range caches {
		hits, misses, entries := nc.cache.Stats()
		out = append(out, CacheStats{Name: nc.name, Hits: hits, Misses: misses,
			Declined: nc.cache.Declined(), Entries: entries})
	}
	return out
}

// Middleware returns the recording middleware. One Stats value may back
// several providers; operations are keyed "namespace#operation".
func (s *Stats) Middleware() core.Middleware {
	return func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			start := time.Now()
			s.inFlight.Add(1)
			vals, err := next(ctx, args)
			s.exit()
			s.recordOutcome(ctx.ServiceNS+"#"+ctx.Operation, time.Since(start), err)
			s.decoded.Add(1)
			return vals, err
		}
	}
}

// Record counts one operation outcome that did not flow through the
// middleware chain — the federated gateway uses it to surface per-op
// forwarding counts and latencies at its own /healthz. Unlike the
// middleware it touches neither the in-flight gauge nor the decode-path
// counters (a relayed request is never decoded here).
func (s *Stats) Record(key string, d time.Duration, err error) {
	s.recordOutcome(key, d, err)
}

func (s *Stats) recordOutcome(key string, d time.Duration, err error) {
	v, ok := s.ops.Load(key)
	if !ok {
		// First request for this operation: race to install the accumulator;
		// losers adopt the winner's.
		v, _ = s.ops.LoadOrStore(key, &opCounters{})
	}
	op := v.(*opCounters)
	op.count.Add(1)
	if err != nil {
		op.errors.Add(1)
		// Classify the resilience outcomes so the health document shows
		// degradation (timeouts, shedding, drain) separately from plain
		// handler errors.
		if pe := soap.AsPortalError(err); pe != nil {
			switch pe.Code {
			case soap.ErrCodeTimeout:
				s.timeouts.Add(1)
			case soap.ErrCodeServerBusy:
				s.shed.Add(1)
			case soap.ErrCodeUnavailable:
				s.drained.Add(1)
			}
		}
	}
	ns := d.Nanoseconds()
	op.totalNS.Add(ns)
	for {
		cur := op.maxNS.Load()
		if ns <= cur || op.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot returns a copy of the per-operation stats (weakly consistent
// under concurrent recording).
func (s *Stats) Snapshot() map[string]OpStats {
	out := map[string]OpStats{}
	s.ops.Range(func(k, v any) bool {
		out[k.(string)] = v.(*opCounters).snapshot()
		return true
	})
	return out
}

// DecodeSnapshot returns the decode counters.
func (s *Stats) DecodeSnapshot() DecodeStats {
	return DecodeStats{FastPath: s.decoded.Load()}
}

// InFlight reports how many requests are currently inside the middleware
// chain.
func (s *Stats) InFlight() int64 { return s.inFlight.Load() }

// exit decrements the in-flight gauge and, on the transition to zero,
// wakes every WaitIdle waiter.
func (s *Stats) exit() {
	if s.inFlight.Add(-1) != 0 {
		return
	}
	s.idleMu.Lock()
	// Re-check under the lock: a request admitted after the decrement may
	// have raised the gauge again, in which case its own exit signals.
	if s.idleCh != nil && s.inFlight.Load() == 0 {
		close(s.idleCh)
		s.idleCh = nil
	}
	s.idleMu.Unlock()
}

// WaitIdle blocks until no requests are in flight or ctx expires. A
// collector that is already idle — in particular one whose middleware was
// never installed, so the gauge never moves — returns immediately; there
// is no polling, the waiter parks on a channel closed by the request that
// takes the gauge to zero.
func (s *Stats) WaitIdle(ctx context.Context) error {
	for {
		s.idleMu.Lock()
		if s.inFlight.Load() == 0 {
			s.idleMu.Unlock()
			return nil
		}
		if s.idleCh == nil {
			s.idleCh = make(chan struct{})
		}
		ch := s.idleCh
		s.idleMu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// RetryStats is one registered retry policy's counters.
type RetryStats struct {
	Name    string `json:"name"`
	Retries uint64 `json:"retries"`
}

// ResilienceStats is the degradation section of the health document.
type ResilienceStats struct {
	// InFlight is the live request gauge.
	InFlight int64 `json:"inFlight"`
	// Timeouts counts requests answered with the Timeout fault.
	Timeouts uint64 `json:"timeouts"`
	// Shed counts requests rejected ServerBusy at capacity.
	Shed uint64 `json:"shed"`
	// Drained counts requests rejected while the server was draining.
	Drained uint64 `json:"drained"`
	// Breakers reports every registered client-side circuit.
	Breakers []resilience.BreakerStats `json:"breakers,omitempty"`
	// Retries reports every registered retry policy's granted retries.
	Retries []RetryStats `json:"retries,omitempty"`
}

// ResilienceSnapshot reports the degradation counters and every
// registered breaker and retry policy (weakly consistent).
func (s *Stats) ResilienceSnapshot() ResilienceStats {
	out := ResilienceStats{
		InFlight: s.inFlight.Load(),
		Timeouts: s.timeouts.Load(),
		Shed:     s.shed.Load(),
		Drained:  s.drained.Load(),
	}
	s.resilMu.Lock()
	breakers := s.breakers
	retries := s.retries
	s.resilMu.Unlock()
	for _, nb := range breakers {
		for _, bs := range nb.set.Snapshot() {
			bs.Name = nb.name + ":" + bs.Name
			out.Breakers = append(out.Breakers, bs)
		}
	}
	for _, nr := range retries {
		out.Retries = append(out.Retries, RetryStats{Name: nr.name, Retries: nr.policy.Retries()})
	}
	return out
}

// Flush writes a final one-line summary of the collector to l — the last
// act of a graceful drain, so the numbers survive in the logs after the
// process exits.
func (s *Stats) Flush(l *log.Logger) {
	if l == nil {
		l = log.Default()
	}
	var count, errs uint64
	s.ops.Range(func(_, v any) bool {
		c := v.(*opCounters)
		count += c.count.Load()
		errs += c.errors.Load()
		return true
	})
	l.Printf("rpc stats flush: requests=%d errors=%d timeouts=%d shed=%d drained=%d decoded=%d uptime=%s",
		count, errs, s.timeouts.Load(), s.shed.Load(), s.drained.Load(),
		s.decoded.Load(), time.Since(s.start).Round(time.Millisecond))
}

// ServeHTTP serves the health document: status, uptime, and per-operation
// counters, deterministically ordered.
func (s *Stats) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type opLine struct {
		Operation string `json:"operation"`
		OpStats
	}
	counters := s.CounterSnapshot()
	if len(counters) == 0 {
		counters = nil
	}
	doc := struct {
		Status     string            `json:"status"`
		UptimeSecs float64           `json:"uptimeSeconds"`
		Decode     DecodeStats       `json:"decode"`
		Resilience ResilienceStats   `json:"resilience"`
		Caches     []CacheStats      `json:"caches,omitempty"`
		Counters   map[string]uint64 `json:"counters,omitempty"`
		Operations []opLine          `json:"operations"`
	}{Status: "ok", UptimeSecs: time.Since(s.start).Seconds(), Decode: s.DecodeSnapshot(),
		Resilience: s.ResilienceSnapshot(), Caches: s.CacheSnapshot(), Counters: counters}
	for _, k := range keys {
		doc.Operations = append(doc.Operations, opLine{Operation: k, OpStats: snap[k]})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
