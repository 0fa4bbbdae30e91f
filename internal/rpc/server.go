package rpc

import (
	"bytes"
	"context"
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
	"repro/internal/xmlutil"
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

// Handler returns the complete HTTP surface: SOAP endpoints with WSDL
// publication, the WS-Inspection document, /healthz, and any extra
// mounted handlers.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes the server itself mountable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
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

// minTransferRate is the slowest average rate, in bytes per second, at
// which a peer may send a request body. 2 KiB/s (16 kbit/s) is half the
// 33.6 kbit/s upstream of a V.90 dial-up modem (ITU-T V.90, 1998), so an
// upload from a modem-class link or anything faster fits its budget.
const minTransferRate = 2 << 10

// idleTimeout bounds how long a keep-alive connection may sit between
// requests.
const idleTimeout = 2 * time.Minute

// readHeaderTimeout bounds the request line and headers, and is also the
// slack every request body gets on top of its transfer time. A variable
// only so tests can shorten it.
var readHeaderTimeout = 10 * time.Second

// bodyBudget is how long a request body of declared length n may take to
// arrive: the slack plus n bytes at minTransferRate. An unknown length
// (-1, a chunked body) counts as xmlutil.MessageLimit, the most any
// handler reads.
func bodyBudget(n int64) time.Duration {
	if n < 0 || n > xmlutil.MessageLimit {
		n = xmlutil.MessageLimit
	}
	return readHeaderTimeout + time.Duration(n)*time.Second/minTransferRate
}

// NewHTTPServer returns the http.Server every portal binary listens with:
// h served on addr under the header and idle timeouts above, each request
// body read under the deadline withBodyDeadline sets.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           withBodyDeadline(h),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// withBodyDeadline cuts off a peer that sends a header and then stalls,
// instead of letting it hold its connection, and the message buffer
// presized for its declared body, forever. The read deadline follows the
// declared length (bodyBudget), so a large upload over a slow link still
// arrives. net/http lifts it when the body has been read, so a handler
// that then runs long keeps its connection and its context. A request
// without a body gets no deadline: net/http is already reading ahead on
// its connection, and a deadline firing there would cancel the handler's
// context.
func withBodyDeadline(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength != 0 {
			// Fails only where the connection takes no deadline (HTTP/2, test recorders).
			http.NewResponseController(w).SetReadDeadline(time.Now().Add(bodyBudget(r.ContentLength)))
		}
		h.ServeHTTP(w, r)
	})
}

// ListenAndServe serves the handler on addr until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	srv := NewHTTPServer(addr, s.mux)
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
