package rpc

import (
	"bytes"
	"context"
	"crypto/subtle"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/soap"
	"repro/internal/wsil"
)

// Server is the hosting layer: it owns one or more SOAP service providers
// mounted under path prefixes, serves each service's WSDL (through the
// provider's GET ?wsdl handling), publishes the WS-Inspection document at
// the well-known path, exposes request stats at /healthz, and wraps every
// provider in the kernel's recovery and stats middleware. Binaries build
// their whole HTTP surface from one Server instead of hand-assembling a
// mux, provider set, and inspection publisher.
type Server struct {
	// Name identifies the deployment in faults and logs.
	Name string

	mux   *http.ServeMux
	stats *Stats

	// draining gates new requests once Shutdown begins: the HTTP listener
	// stops on its own, but in-process (loopback) dispatch keeps flowing
	// and must be refused here.
	draining atomic.Bool
	// httpMu guards the live http.Server handle Shutdown needs.
	httpMu  sync.Mutex
	httpSrv *http.Server

	// flushMu guards the cache-flush registry and token (wiring-time
	// writes, per-flush reads).
	flushMu    sync.Mutex
	flushToken string
	flushable  map[string][]*ResponseCache
	flushes    atomic.Uint64

	mu      sync.Mutex
	baseURL string
	mounts  []*mount
	// wsil caches the rendered WS-Inspection document. Services are only
	// ever added (never removed), so the (service count, base URL) pair is
	// a complete freshness key: late registrations and base-URL rewrites
	// regenerate it, everything else is served from the cache.
	wsil struct {
		services int
		baseURL  string
		doc      []byte
	}
}

type mount struct {
	prefix   string
	provider *core.Provider
}

// NewServer creates a hosting server. baseURL is the externally visible
// URL prefix used in published WSDL endpoint addresses (it may be
// corrected later with SetBaseURL once a listener address is known).
func NewServer(name, baseURL string) *Server {
	s := &Server{
		Name:    name,
		baseURL: strings.TrimSuffix(baseURL, "/"),
		mux:     http.NewServeMux(),
		stats:   NewStats(),
	}
	s.mux.Handle("/healthz", s.stats)
	s.mux.HandleFunc(wsil.WellKnownPath, s.serveWSIL)
	return s
}

// Stats returns the server-wide request stats collector.
func (s *Server) Stats() *Stats { return s.stats }

// Provider creates and mounts a SOAP service provider under prefix (""
// mounts at the root). Every provider gets the kernel's recovery and
// stats middleware, then the given middlewares, in order. Services are
// then deployed with the returned provider's Register/MustRegister.
func (s *Server) Provider(prefix string, mw ...core.Middleware) *core.Provider {
	s.mu.Lock()
	defer s.mu.Unlock()
	prefix = strings.TrimSuffix(prefix, "/")
	for _, m := range s.mounts {
		if m.prefix == prefix {
			panic(fmt.Sprintf("rpc: server %s already has a provider at prefix %q", s.Name, prefix))
		}
	}
	name := s.Name
	if prefix != "" {
		name += strings.ReplaceAll(prefix, "/", "-")
	}
	p := core.NewProvider(name, s.baseURL+prefix)
	// Stats outermost so it also observes panics after Recover turns them
	// into faults, and drain rejections before Recover.
	p.Use(s.stats.Middleware())
	p.Use(s.drainGate)
	p.Use(Recover())
	for _, m := range mw {
		p.Use(m)
	}
	if prefix == "" {
		s.mux.Handle("/", p)
	} else {
		s.mux.Handle(prefix+"/", http.StripPrefix(prefix, p))
	}
	s.mounts = append(s.mounts, &mount{prefix: prefix, provider: p})
	return p
}

// Handle mounts an arbitrary HTTP handler (UI pages, wizard forms) on the
// server's mux alongside the SOAP endpoints.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// HandleFunc mounts an HTTP handler function on the server's mux.
func (s *Server) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	s.mux.HandleFunc(pattern, h)
}

// SetBaseURL rewrites the externally visible base URL on the server and
// every mounted provider — used when the listener address is only known
// after the server is assembled (httptest, port 0).
func (s *Server) SetBaseURL(baseURL string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.baseURL = strings.TrimSuffix(baseURL, "/")
	for _, m := range s.mounts {
		m.provider.SetBaseURL(s.baseURL + m.prefix)
	}
}

// Providers returns the mounted providers in mount order.
func (s *Server) Providers() []*core.Provider {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*core.Provider, len(s.mounts))
	for i, m := range s.mounts {
		out[i] = m.provider
	}
	return out
}

// Handler returns the complete HTTP surface: SOAP endpoints with WSDL
// publication, the WS-Inspection document, /healthz, and any extra
// mounted handlers.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes the server itself mountable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// FlushPath is the kernel's cache-invalidation control endpoint: an
// authenticated POST here drops the response caches registered for a
// service namespace. A federating gateway uses it to invalidate every
// replica's cache after forwarding a write to one of them, so stale
// inquiry answers disappear fleet-wide, not just on the node that took
// the write.
const FlushPath = "/__flush"

// FlushTokenHeader carries the shared-secret token authenticating flush
// control ops.
const FlushTokenHeader = "X-Portal-Flush-Token"

// RegisterFlushCache associates a response cache with the service
// namespace whose write operations invalidate it, making the cache
// reachable through the __flush control op. Callers normally also
// Stats().RegisterCache the same cache for /healthz visibility.
func (s *Server) RegisterFlushCache(serviceNS string, c *ResponseCache) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.flushable == nil {
		s.flushable = make(map[string][]*ResponseCache)
	}
	s.flushable[serviceNS] = append(s.flushable[serviceNS], c)
}

// EnableCacheFlush mounts the __flush control op, authenticated by the
// shared token: POST /__flush?ns=<serviceNS> drops every cache registered
// for that namespace (every registered cache when ns is empty).
// Cross-node invalidation stays off unless a deployment opts in with a
// non-empty token.
func (s *Server) EnableCacheFlush(token string) {
	if token == "" {
		panic("rpc: EnableCacheFlush requires a non-empty token")
	}
	s.flushMu.Lock()
	already := s.flushToken != ""
	s.flushToken = token
	s.flushMu.Unlock()
	if !already {
		s.mux.HandleFunc(FlushPath, s.serveFlush)
	}
}

// Flushes reports how many __flush control ops the server has honoured.
func (s *Server) Flushes() uint64 { return s.flushes.Load() }

func (s *Server) serveFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "flush: POST required", http.StatusMethodNotAllowed)
		return
	}
	s.flushMu.Lock()
	token := s.flushToken
	s.flushMu.Unlock()
	got := r.Header.Get(FlushTokenHeader)
	if token == "" || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
		http.Error(w, "flush: invalid token", http.StatusForbidden)
		return
	}
	ns := r.URL.Query().Get("ns")
	s.flushMu.Lock()
	var caches []*ResponseCache
	if ns == "" {
		for _, cs := range s.flushable {
			caches = append(caches, cs...)
		}
	} else {
		caches = append(caches, s.flushable[ns]...)
	}
	s.flushMu.Unlock()
	for _, c := range caches {
		c.Flush()
	}
	s.flushes.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "flushed %d\n", len(caches))
}

// DrainingError is the fault new requests are refused with while the
// server drains: ServiceUnavailable with retry advice, so well-behaved
// clients fail over or come back after the restart.
func DrainingError(server string) error {
	pe := soap.NewPortalError(server, soap.ErrCodeUnavailable, "server %s is draining", server)
	f := pe.Fault()
	f.RetryAfter = time.Second
	return f
}

// drainGate refuses new requests once Shutdown has begun. It sits between
// stats (which counts the rejections) and the rest of the chain, so
// in-flight requests below it finish undisturbed.
func (s *Server) drainGate(next core.HandlerFunc) core.HandlerFunc {
	return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
		if s.draining.Load() {
			return nil, DrainingError(s.Name)
		}
		return next(ctx, args)
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ListenAndServe serves the handler on addr until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.mux}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.ListenAndServe()
}

// Shutdown drains the server gracefully: it stops accepting new requests
// (both at the HTTP listener and, for in-process transports, at the drain
// gate), waits for in-flight requests to finish, and flushes the stats
// collector to the log. ctx bounds the wait; its expiry abandons the
// drain and returns the context error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	// srv.Shutdown only waits for HTTP connections; in-process dispatches
	// (loopback transports, server transports) are tracked by the stats
	// in-flight gauge, whose drain signal the wait parks on — no polling.
	if werr := s.stats.WaitIdle(ctx); werr != nil {
		return werr
	}
	s.stats.Flush(nil)
	return err
}

// ListenAndServeGraceful serves on addr until SIGTERM or SIGINT, then
// drains within drainTimeout. It returns nil after a clean drain, making
// it the one-line main-loop for portal binaries.
func (s *Server) ListenAndServeGraceful(addr string, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- s.ListenAndServe(addr) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		log.Printf("rpc: server %s draining (signal)", s.Name)
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := s.Shutdown(sctx); err != nil {
			return fmt.Errorf("rpc: drain %s: %w", s.Name, err)
		}
		if err := <-errCh; err != nil && err != http.ErrServerClosed {
			return err
		}
		log.Printf("rpc: server %s drained cleanly", s.Name)
		return nil
	}
}

// serveWSIL publishes the live WS-Inspection document enumerating every
// deployed service with a link to its WSDL. The rendered document is cached
// until a service is registered or the base URL changes, so late
// registrations still appear without re-publication.
func (s *Server) serveWSIL(w http.ResponseWriter, r *http.Request) {
	// Snapshot the base URL and mount list together, then derive every
	// WSDL link from that snapshot: the cached document is keyed to the
	// exact base it was rendered for, so a concurrent SetBaseURL cannot
	// poison the cache with mismatched links.
	s.mu.Lock()
	base := s.baseURL
	mounts := append([]*mount(nil), s.mounts...)
	s.mu.Unlock()
	doc := &wsil.Document{}
	for _, m := range mounts {
		for _, svc := range m.provider.Services() {
			doc.Services = append(doc.Services, wsil.ServiceEntry{
				Name:         svc.Contract.Name,
				Abstract:     svc.Contract.Doc,
				WSDLLocation: base + m.prefix + svc.Path + "?wsdl",
			})
		}
	}
	count := len(doc.Services)
	s.mu.Lock()
	if s.wsil.doc != nil && s.wsil.services == count && s.wsil.baseURL == base {
		cached := s.wsil.doc
		s.mu.Unlock()
		writeXML(w, cached)
		return
	}
	s.mu.Unlock()
	rendered := []byte(doc.Render())
	s.mu.Lock()
	s.wsil.services = count
	s.wsil.baseURL = base
	s.wsil.doc = rendered
	s.mu.Unlock()
	writeXML(w, rendered)
}

func writeXML(w http.ResponseWriter, doc []byte) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
	_, _ = w.Write(doc)
}

// Transport returns an in-process transport that routes calls addressed
// to any of the given servers' endpoints straight into the owning
// provider's dispatch (serialising and reparsing envelopes for wire
// fidelity). Examples and tests use it to exercise the full stack without
// TCP.
func Transport(servers ...*Server) soap.Transport {
	return &serverTransport{servers: servers}
}

// Transport returns the in-process transport for this server alone.
func (s *Server) Transport() soap.Transport { return Transport(s) }

type serverTransport struct {
	servers []*Server
}

func (t *serverTransport) route(endpoint string) (*core.Provider, error) {
	var best *core.Provider
	bestLen := -1
	for _, s := range t.servers {
		s.mu.Lock()
		for _, m := range s.mounts {
			base := m.provider.BaseURL
			if (endpoint == base || strings.HasPrefix(endpoint, base+"/")) && len(base) > bestLen {
				best, bestLen = m.provider, len(base)
			}
		}
		s.mu.Unlock()
	}
	if best == nil {
		return nil, fmt.Errorf("rpc: no mounted provider serves endpoint %q", endpoint)
	}
	return best, nil
}

// RoundTripCtx returns the parsed response tree. It exists for the
// benchmark harness (portalbench); see soap.ContextTransport.
func (t *serverTransport) RoundTripCtx(ctx context.Context, endpoint, action string, req *soap.Envelope) (*soap.Envelope, error) {
	return soap.RoundTripEnvelope(ctx, t, endpoint, action, req)
}

// RoundTripRawCtx implements soap.Transport: the caller's context reaches
// the dispatched handler, so client deadlines and cancellation propagate
// through the in-process transport exactly as they do over HTTP.
func (t *serverTransport) RoundTripRawCtx(ctx context.Context, endpoint, action string, req *soap.Envelope, resp *bytes.Buffer) error {
	best, err := t.route(endpoint)
	if err != nil {
		return err
	}
	return best.Loopback().RoundTripRawCtx(ctx, endpoint, action, req, resp)
}
