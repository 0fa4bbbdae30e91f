package main

import (
	"bytes"
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/soap"
	"repro/internal/wal"
)

// layer names one span kind. Every span of a layer nests inside exactly one
// span of a known parent layer, so a layer's self time is the sum of its
// spans minus the sums of its children's spans; no per-request span
// identity is needed. The nesting, outermost first:
//
//	client  typed client call (the benchmark's own code)
//	└ roundtrip       the clients' HTTP transport
//	  ├ gateway       Gateway.Handler (discovery only)
//	  │ └ forward     Gateway.Forward (discovery only)
//	  │   └ backend   rpc.Server.Handler on a backend
//	  └ backend       (session, transfer: clients talk to the backend)
//	    └ provider    outermost provider middleware
//	      └ <service> innermost Service.Use middleware, inside the cache
//	        └ loopback  srv.Transport() as the Globusrun client uses it
//	          └ provider … (the in-process Globusrun dispatch)
type layer int

const (
	lClient layer = iota
	lRoundTrip
	lGateway
	lForward
	lBackend
	lLoopback
	lProvider
	lUDDI
	lXMLRegistry
	lContextMgr
	lSRB
	lBatchScript
	lJobSub
	nLayers
)

// serviceLayers are the innermost service middleware spans, by metric
// prefix.
var serviceLayers = []struct {
	name string
	l    layer
}{
	{"uddi", lUDDI}, {"xmlregistry", lXMLRegistry}, {"contextmgr", lContextMgr},
	{"srbws", lSRB}, {"batchscript", lBatchScript}, {"jobsub", lJobSub},
}

// tracer accumulates span sums per layer while it is on. Wrappers are only
// installed on a traced run's traced stack; the benchmark switches the
// tracer on for that stack's timed chunks only, at chunk barriers, when no
// request is in flight, so every span is either wholly recorded or not at
// all.
type tracer struct {
	on  atomic.Bool
	sum [nLayers]atomic.Int64 // ns
	n   [nLayers]atomic.Int64

	walMu  sync.Mutex
	walLat []int64 // ns per WAL append while on

	compactions atomic.Int64
	compactNS   atomic.Int64
}

func (t *tracer) record(l layer, start time.Time) {
	t.sum[l].Add(int64(time.Since(start)))
	t.n[l].Add(1)
}

// traceSums is a snapshot of the span accumulators.
type traceSums struct {
	sum, n [nLayers]int64
}

func (t *tracer) snapshot() traceSums {
	var s traceSums
	for i := range s.sum {
		s.sum[i] = t.sum[i].Load()
		s.n[i] = t.n[i].Load()
	}
	return s
}

// walAppendPercentiles returns the p50 and p99 append latency in µs.
func (t *tracer) walAppendPercentiles() (p50, p99 float64) {
	t.walMu.Lock()
	lat := append([]int64(nil), t.walLat...)
	t.walMu.Unlock()
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(percentile(lat, 0.50)) / 1e3, float64(percentile(lat, 0.99)) / 1e3
}

// middleware records one span around the rest of the chain.
func (t *tracer) middleware(l layer) core.Middleware {
	return func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			if !t.on.Load() {
				return next(ctx, args)
			}
			start := time.Now()
			vals, err := next(ctx, args)
			t.record(l, start)
			return vals, err
		}
	}
}

// handler records one span per SOAP POST; GETs (the gateway's health
// probes, WSDL and WSIL fetches) are not operations and pass untimed.
func (t *tracer) handler(l layer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(l, start)
	})
}

// traceForwarder times Gateway.Forward.
type traceForwarder struct {
	inner gateway.Forwarder
	t     *tracer
}

func (f *traceForwarder) Forward(ctx context.Context, backend, path, action string, body []byte, resp *bytes.Buffer) (gateway.ForwardResult, error) {
	if !f.t.on.Load() {
		return f.inner.Forward(ctx, backend, path, action, body, resp)
	}
	start := time.Now()
	res, err := f.inner.Forward(ctx, backend, path, action, body, resp)
	f.t.record(lForward, start)
	return res, err
}

// fullTransport is what the wrapped transports (soap.HTTPTransport and the
// rpc server transport) implement. The wrapper implements all four
// interfaces too: a client that saw only soap.Transport would fall back
// from the pooled raw path to the retained-tree path and measure a
// different program.
type fullTransport interface {
	soap.ContextTransport
	soap.ContextRawTransport
}

// traceTransport times every round trip through the wrapped transport.
type traceTransport struct {
	inner fullTransport
	t     *tracer
	l     layer
}

func (tt *traceTransport) RoundTrip(endpoint, action string, req *soap.Envelope) (*soap.Envelope, error) {
	return tt.RoundTripCtx(context.Background(), endpoint, action, req)
}

func (tt *traceTransport) RoundTripCtx(ctx context.Context, endpoint, action string, req *soap.Envelope) (*soap.Envelope, error) {
	if !tt.t.on.Load() {
		return tt.inner.RoundTripCtx(ctx, endpoint, action, req)
	}
	start := time.Now()
	env, err := tt.inner.RoundTripCtx(ctx, endpoint, action, req)
	tt.t.record(tt.l, start)
	return env, err
}

func (tt *traceTransport) RoundTripRaw(endpoint, action string, req *soap.Envelope, resp *bytes.Buffer) error {
	return tt.RoundTripRawCtx(context.Background(), endpoint, action, req, resp)
}

func (tt *traceTransport) RoundTripRawCtx(ctx context.Context, endpoint, action string, req *soap.Envelope, resp *bytes.Buffer) error {
	if !tt.t.on.Load() {
		return tt.inner.RoundTripRawCtx(ctx, endpoint, action, req, resp)
	}
	start := time.Now()
	err := tt.inner.RoundTripRawCtx(ctx, endpoint, action, req, resp)
	tt.t.record(tt.l, start)
	return err
}

// walStore is the persist.Store handed to a service's Persist in place of
// the *wal.Log it wraps. It always counts appended records and bytes (the
// end-state fingerprint needs them on untraced runs too); with a tracer
// attached it also times appends, replay and compactions.
type walStore struct {
	log *wal.Log
	t   *tracer // nil on untraced runs

	appends  atomic.Int64
	bytes    atomic.Int64
	replayNS atomic.Int64
}

func (s *walStore) Append(op string, data []byte) error {
	s.appends.Add(1)
	s.bytes.Add(int64(len(op) + len(data)))
	if s.t == nil || !s.t.on.Load() {
		return s.log.Append(op, data)
	}
	start := time.Now()
	err := s.log.Append(op, data)
	d := int64(time.Since(start))
	s.t.walMu.Lock()
	s.t.walLat = append(s.t.walLat, d)
	s.t.walMu.Unlock()
	return err
}

func (s *walStore) Replay(apply func(op string, data []byte) error) error {
	start := time.Now()
	err := s.log.Replay(apply)
	s.replayNS.Add(int64(time.Since(start)))
	return err
}

func (s *walStore) Compact(dump func(add func(op string, data []byte) error) error) error {
	if s.t == nil || !s.t.on.Load() {
		return s.log.Compact(dump)
	}
	start := time.Now()
	err := s.log.Compact(dump)
	s.t.compactions.Add(1)
	s.t.compactNS.Add(int64(time.Since(start)))
	return err
}

func (s *walStore) Size() int64  { return s.log.Size() }
func (s *walStore) Close() error { return s.log.Close() }
