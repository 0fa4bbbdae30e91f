package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/batchscript"
	"repro/internal/contextmgr"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/grid"
	"repro/internal/jobsub"
	"repro/internal/persist"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/srb"
	"repro/internal/srbws"
	"repro/internal/uddi"
	"repro/internal/wal"
	"repro/internal/xmlregistry"
)

// principal is the portal user every backend runs its services as.
const principal = "guest"

// contextEpoch is the context store's clock. Context WAL records carry
// their timestamp, and a wall clock would make the log's byte count vary
// from run to run; a fixed clock keeps the end state comparable.
var contextEpoch = time.Date(2002, 11, 16, 9, 0, 0, 0, time.UTC)

// backend is one portal server assembled as cmd/portalserver assembles
// it, serving over 127.0.0.1 TCP: the /ssp services behind rpc.Logging,
// the UDDI registry and XML registry behind 30 s / 4096-entry response
// caches on their find*/get* operations, and, when it has a data
// directory, WAL persistence for the three stateful stores.
type backend struct {
	base    string
	srv     *rpc.Server
	http    *http.Server
	served  chan struct{}
	uddi    *uddi.Registry
	xreg    *xmlregistry.Registry
	ctx     *contextmgr.Store
	broker  *srb.Broker
	testbed *grid.Grid
	caches  []*rpc.ResponseCache
	wals    []*walStore
	closers []func() error
}

// newBackend builds and starts a backend. dataDir "" keeps every store in
// memory; otherwise each store gets a WAL under dataDir/<store>, replayed
// before the backend serves. preload runs against the stores after replay
// and before the listener accepts requests.
func newBackend(dataDir string, tr *tracer, preload func(*backend) error) (*backend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	b := &backend{
		base:    "http://" + ln.Addr().String(),
		uddi:    uddi.NewRegistry(),
		xreg:    xmlregistry.NewRegistry(),
		ctx:     contextmgr.NewStore(),
		broker:  srb.NewBroker("sdsc"),
		testbed: grid.NewTestbed(),
		served:  make(chan struct{}),
	}
	b.ctx.SetTimeSource(func() time.Time { return contextEpoch })
	b.testbed.Authorize(principal)
	b.broker.CreateUser(principal)
	fail := func(err error) (*backend, error) {
		ln.Close()
		b.closeStores()
		return nil, err
	}
	if dataDir != "" {
		for _, s := range []struct {
			name   string
			attach func(persist.Store) error
			close  func() error
		}{
			{"contextmgr", b.ctx.Persist, b.ctx.ClosePersist},
			{"uddi", b.uddi.Persist, b.uddi.ClosePersist},
			{"xmlregistry", b.xreg.Persist, b.xreg.ClosePersist},
		} {
			l, err := wal.Open(filepath.Join(dataDir, s.name), wal.Options{})
			if err != nil {
				return fail(err)
			}
			ws := &walStore{log: l, t: tr}
			if err := s.attach(ws); err != nil {
				l.Close()
				return fail(fmt.Errorf("recover %s: %w", s.name, err))
			}
			b.wals = append(b.wals, ws)
			b.closers = append(b.closers, s.close)
		}
	}

	b.srv = rpc.NewServer("portal", b.base)
	var mw []core.Middleware
	if tr != nil {
		mw = append(mw, tr.middleware(lProvider))
	}
	// The request log is formatted in full and then dropped: the sink
	// costs nothing and the formatting is the middleware's own work.
	// (log.Logger skips formatting altogether for io.Discard itself.)
	ssp := b.srv.Provider("/ssp", append(mw, rpc.Logging(log.New(dropWriter{}, "", log.LstdFlags)))...)
	loop := b.srv.Transport()
	if tr != nil {
		loop = &traceTransport{inner: loop.(fullTransport), t: tr, l: lLoopback}
	}
	globusrun := jobsub.NewGlobusrunClient(loop, b.base+"/ssp/Globusrun")
	ssp.MustRegister(traced(tr, lJobSub, jobsub.NewGlobusrunService(b.testbed, principal)))
	ssp.MustRegister(traced(tr, lJobSub, jobsub.NewBatchJobService(globusrun)))
	ssp.MustRegister(traced(tr, lSRB, srbws.NewService(b.broker, principal)))
	ssp.MustRegister(traced(tr, lBatchScript, batchscript.NewService(batchscript.NewIUGenerator())))
	ssp.MustRegister(traced(tr, lContextMgr, contextmgr.NewMonolithService(b.ctx)))

	uddiSvc := uddi.NewService(b.uddi)
	uddiCache := rpc.NewResponseCache(30*time.Second, 4096)
	uddiSvc.Use(uddiCache.Middleware(rpc.OpPrefixes("find", "get")))
	b.srv.Stats().RegisterCache("uddi", uddiCache)
	b.srv.Provider("/uddi", mw...).MustRegister(traced(tr, lUDDI, uddiSvc))

	xregSvc := xmlregistry.NewService(b.xreg)
	xregCache := rpc.NewResponseCache(30*time.Second, 4096)
	xregSvc.Use(xregCache.Middleware(rpc.OpPrefixes("find", "get")))
	b.srv.Stats().RegisterCache("xmlregistry", xregCache)
	b.srv.Provider("/registry", mw...).MustRegister(traced(tr, lXMLRegistry, xregSvc))
	b.caches = []*rpc.ResponseCache{uddiCache, xregCache}

	if preload != nil {
		if err := preload(b); err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
	}
	var h http.Handler = b.srv.Handler()
	if tr != nil {
		h = tr.handler(lBackend, h)
	}
	b.http = &http.Server{Handler: h}
	go func() {
		defer close(b.served)
		_ = b.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return b, nil
}

// dropWriter accepts and drops every write.
type dropWriter struct{}

func (dropWriter) Write(p []byte) (int, error) { return len(p), nil }

// traced adds the service's handler span as its innermost middleware.
func traced(tr *tracer, l layer, svc *core.Service) *core.Service {
	if tr != nil {
		svc.Use(tr.middleware(l))
	}
	return svc
}

func (b *backend) closeStores() error {
	var errs []error
	for _, c := range b.closers {
		errs = append(errs, c())
	}
	b.closers = nil
	return errors.Join(errs...)
}

// close stops serving, waits for the server goroutine, then flushes and
// closes the WALs.
func (b *backend) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.http.Shutdown(ctx)
	<-b.served
	return errors.Join(err, b.closeStores())
}

// walTotals sums the appended records and bytes over the backend's WALs.
func (b *backend) walTotals() (appends, bytes int64) {
	for _, w := range b.wals {
		appends += w.appends.Load()
		bytes += w.bytes.Load()
	}
	return appends, bytes
}

// replayTime sums the WAL replay time over the backend's stores.
func (b *backend) replayTime() time.Duration {
	var d int64
	for _, w := range b.wals {
		d += w.replayNS.Load()
	}
	return time.Duration(d)
}

// frontDoor is a federating gateway over the given backends, assembled as
// cmd/gateway assembles it: gateway.New, Mount (the WSIL/WSDL crawl), the
// default HTTP forwarder and a 2 s health prober.
type frontDoor struct {
	base   string
	gw     *gateway.Gateway
	http   *http.Server
	served chan struct{}
	mount  time.Duration
}

func newFrontDoor(tr *tracer, backends ...*backend) (*frontDoor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &frontDoor{base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	f.gw = gateway.New("gateway", f.base)
	if tr != nil {
		f.gw.Forward = &traceForwarder{inner: f.gw.Forward, t: tr}
	}
	bases := make([]string, len(backends))
	for i, b := range backends {
		bases[i] = b.base
	}
	start := time.Now()
	if err := f.gw.Mount(bases...); err != nil {
		ln.Close()
		return nil, err
	}
	f.mount = time.Since(start)
	f.gw.StartHealth(2 * time.Second)
	var h http.Handler = f.gw.Handler()
	if tr != nil {
		h = tr.handler(lGateway, h)
	}
	f.http = &http.Server{Handler: h}
	go func() {
		defer close(f.served)
		_ = f.http.Serve(ln)
	}()
	return f, nil
}

func (f *frontDoor) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.http.Shutdown(ctx)
	<-f.served
	f.gw.Close()
	return err
}

// newHTTPTransport is one client's transport: its own HTTP client holding
// at most one connection, so two closed-loop clients use two connections.
func newHTTPTransport(tr *tracer) (soap.Transport, *http.Client) {
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	var t soap.Transport = &soap.HTTPTransport{Client: hc}
	if tr != nil {
		t = &traceTransport{inner: t.(fullTransport), t: tr, l: lRoundTrip}
	}
	return t, hc
}

// stackCounters are the kernel's own counters summed over a stack.
type stackCounters struct {
	cacheHits, cacheMisses uint64
	decodeFast, decodeTree uint64
	rpcErrors              uint64 // rpc.Stats errors over every backend op
	gatewayErrors          uint64 // gateway rpc.Stats errors plus relay.write_errors
	walAppends, walBytes   uint64
}

func readStack(st *stack) stackCounters {
	var c stackCounters
	for _, b := range st.backends {
		stats := b.srv.Stats()
		for _, cs := range stats.CacheSnapshot() {
			c.cacheHits += cs.Hits
			c.cacheMisses += cs.Misses
		}
		d := stats.DecodeSnapshot()
		c.decodeFast += d.FastPath
		c.decodeTree += d.TreePath
		for _, op := range stats.Snapshot() {
			c.rpcErrors += op.Errors
		}
		appends, bytes := b.walTotals()
		c.walAppends += uint64(appends)
		c.walBytes += uint64(bytes)
	}
	if st.front != nil {
		stats := st.front.gw.Stats()
		for _, op := range stats.Snapshot() {
			c.gatewayErrors += op.Errors
		}
		c.gatewayErrors += stats.Counter("relay.write_errors")
	}
	return c
}

func (c stackCounters) minus(o stackCounters) stackCounters {
	return stackCounters{
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		decodeFast: c.decodeFast - o.decodeFast, decodeTree: c.decodeTree - o.decodeTree,
		rpcErrors: c.rpcErrors - o.rpcErrors, gatewayErrors: c.gatewayErrors - o.gatewayErrors,
		walAppends: c.walAppends - o.walAppends, walBytes: c.walBytes - o.walBytes,
	}
}

func (c stackCounters) plus(o stackCounters) stackCounters {
	return stackCounters{
		cacheHits: c.cacheHits + o.cacheHits, cacheMisses: c.cacheMisses + o.cacheMisses,
		decodeFast: c.decodeFast + o.decodeFast, decodeTree: c.decodeTree + o.decodeTree,
		rpcErrors: c.rpcErrors + o.rpcErrors, gatewayErrors: c.gatewayErrors + o.gatewayErrors,
		walAppends: c.walAppends + o.walAppends, walBytes: c.walBytes + o.walBytes,
	}
}

// hitRatio is response-cache hits over cache lookups (0 with no lookups).
func (c stackCounters) hitRatio() float64 {
	if c.cacheHits+c.cacheMisses == 0 {
		return 0
	}
	return float64(c.cacheHits) / float64(c.cacheHits+c.cacheMisses)
}

// fastShare is the share of requests decoded on the streaming fast path.
func (c stackCounters) fastShare() float64 {
	if c.decodeFast+c.decodeTree == 0 {
		return 0
	}
	return float64(c.decodeFast) / float64(c.decodeFast+c.decodeTree)
}
