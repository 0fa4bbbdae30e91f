package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/wsil"
	"repro/internal/xmlutil"
)

// Gateway is the federated portal front door: it mounts remote providers
// by consuming their published WSIL/WSDL, routes each request to a
// backend chosen by consistent hashing over the healthy node set, relays
// responses (faults and Retry-After included) byte-for-byte, aggregates
// the fleet's WS-Inspection documents, and propagates cache invalidation
// for forwarded writes. See doc.go for the architecture.
type Gateway struct {
	// Name identifies the gateway in its own faults and logs.
	Name string

	// Fetch retrieves discovery and health documents (WSIL, WSDL,
	// /healthz) from a backend URL. HTTP GET through the client pool by
	// default; tests override it to crawl in-process servers.
	Fetch func(url string) (string, error)
	// Forward posts one serialised request envelope to a backend.
	// HTTPForwarder over the client pool by default.
	Forward Forwarder
	// Flush posts the __flush cache-invalidation control op to one
	// backend. HTTP POST with the token header by default.
	Flush func(backend, serviceNS string) error
	// FlushToken authenticates __flush ops on the backends; empty
	// disables cross-node cache invalidation.
	FlushToken string
	// Breakers holds one circuit per backend, fed by both the health
	// prober and live forwarding outcomes; an open circuit removes the
	// backend from the healthy ring until its open window elapses.
	Breakers *resilience.BreakerSet
	// Replicas is the virtual-node count per backend on the ring
	// (defaultVnodes when 0).
	Replicas int

	pool  *soap.ClientPool
	stats *rpc.Stats
	mux   *http.ServeMux

	mu       sync.Mutex
	baseURL  string
	backends []string
	routes   map[string]*route
	ring     *ring

	healthStop chan struct{}
	healthDone chan struct{}
}

// route is one federated service: the path it occupies on the gateway
// (identical to its path on every backend), the agreed contract, and the
// replica set serving it.
type route struct {
	path     string
	svcName  string
	abstract string
	contract *wsdl.Interface
	backends []string
}

// New creates a gateway. baseURL is the externally visible URL prefix
// used in the aggregated WSIL and re-published WSDL documents.
func New(name, baseURL string) *Gateway {
	g := &Gateway{
		Name:    name,
		baseURL: strings.TrimSuffix(baseURL, "/"),
		pool:    &soap.ClientPool{Timeout: 30 * time.Second},
		stats:   rpc.NewStats(),
		mux:     http.NewServeMux(),
		routes:  map[string]*route{},
		ring:    buildRing(nil, 0),
		Breakers: &resilience.BreakerSet{Config: resilience.BreakerConfig{
			FailureThreshold: 3,
			OpenFor:          2 * time.Second,
		}},
	}
	g.Fetch = g.fetchHTTP
	g.Forward = &HTTPForwarder{Pool: g.pool}
	g.Flush = g.flushHTTP
	g.stats.RegisterBreakers("backends", g.Breakers)
	g.mux.Handle("/healthz", g.stats)
	g.mux.HandleFunc(wsil.WellKnownPath, g.serveWSIL)
	return g
}

// Stats returns the gateway's request stats collector (served at
// /healthz, with the backend circuits registered under "backends").
func (g *Gateway) Stats() *rpc.Stats { return g.stats }

// Handler returns the gateway's complete HTTP surface: every mounted
// service path, the aggregated WS-Inspection document, and /healthz.
func (g *Gateway) Handler() http.Handler { return g.mux }

// ServeHTTP makes the gateway itself mountable.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Backends returns the mounted backend base URLs in mount order.
func (g *Gateway) Backends() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.backends...)
}

// Mount federates the given backend base URLs: each backend's
// WS-Inspection document is fetched, every advertised service's WSDL is
// retrieved and parsed, and the service is mounted on the gateway under
// the same path it occupies on the backend. A service advertised by
// several backends becomes one replicated route; a replica whose contract
// diverges from the first-mounted interface is rejected — the paper's
// agreed-interface discipline, enforced at federation time.
func (g *Gateway) Mount(backends ...string) error {
	for _, b := range backends {
		if err := g.mountBackend(strings.TrimSuffix(b, "/")); err != nil {
			return err
		}
	}
	return nil
}

func (g *Gateway) mountBackend(base string) error {
	body, err := g.Fetch(base + wsil.WellKnownPath)
	if err != nil {
		return fmt.Errorf("gateway: inspect %s: %w", base, err)
	}
	doc, err := wsil.Parse(body)
	if err != nil {
		return fmt.Errorf("gateway: inspect %s: %w", base, err)
	}
	for _, entry := range doc.Services {
		loc := entry.WSDLLocation
		if !strings.HasPrefix(loc, base+"/") || !strings.HasSuffix(loc, "?wsdl") {
			return fmt.Errorf("gateway: %s advertises WSDL at %q, outside its own base", base, loc)
		}
		path := strings.TrimSuffix(strings.TrimPrefix(loc, base), "?wsdl")
		wsdlBody, err := g.Fetch(loc)
		if err != nil {
			return fmt.Errorf("gateway: fetch WSDL %s: %w", loc, err)
		}
		svc, err := wsdl.Parse(wsdlBody)
		if err != nil {
			return fmt.Errorf("gateway: parse WSDL %s: %w", loc, err)
		}
		if err := g.addRoute(path, base, entry, svc); err != nil {
			return err
		}
	}
	g.mu.Lock()
	if !containsNode(g.backends, base) {
		g.backends = append(g.backends, base)
		g.ring = buildRing(g.backends, g.Replicas)
	}
	g.mu.Unlock()
	return nil
}

func (g *Gateway) addRoute(path, backend string, entry wsil.ServiceEntry, svc *wsdl.Service) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	rt, ok := g.routes[path]
	if !ok {
		rt = &route{
			path:     path,
			svcName:  svc.Name,
			abstract: entry.Abstract,
			contract: svc.Interface,
		}
		g.routes[path] = rt
		g.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			g.serveRoute(rt, w, r)
		})
	} else if problems := wsdl.CheckCompatible(rt.contract, svc.Interface); len(problems) > 0 {
		return fmt.Errorf("gateway: %s replica of %s diverges from the agreed interface: %s",
			backend, path, problems[0])
	}
	if !containsNode(rt.backends, backend) {
		rt.backends = append(rt.backends, backend)
	}
	return nil
}

// serveRoute is the front-door HTTP handler for one federated service.
func (g *Gateway) serveRoute(rt *route, w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		if _, ok := r.URL.Query()["wsdl"]; ok {
			g.serveWSDL(rt, w)
			return
		}
		http.Error(w, "soap endpoint: POST required (append ?wsdl for the contract)", http.StatusMethodNotAllowed)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "soap endpoint: POST required", http.StatusMethodNotAllowed)
		return
	}
	if r.ContentLength > soap.MaxMessageBytes() {
		soap.WriteFault(w, soap.OversizeFault(), http.StatusRequestEntityTooLarge)
		return
	}
	body := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(body)
	if err := soap.ReadMessage(body, r.Body); err != nil {
		if errors.Is(err, soap.ErrMessageTooLarge) {
			soap.WriteFault(w, soap.OversizeFault(), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "gateway: read error", http.StatusBadRequest)
		return
	}
	g.forward(rt, w, r, body.Bytes())
}

// forward routes one request body to the healthy replica set. Idempotent
// operations walk the ring's failover sequence; everything else gets
// exactly one attempt — a lost response may mean an executed write, and
// replaying it on another replica could duplicate the effect — and then a
// typed Unavailable fault that leaves the retry decision with the caller.
func (g *Gateway) forward(rt *route, w http.ResponseWriter, r *http.Request, body []byte) {
	start := time.Now()
	ns, op, _ := soap.SniffBody(body)
	opKey := ns + "#" + op
	idempotent := false
	if o := rt.contract.Operation(op); o != nil && ns == rt.contract.TargetNS {
		idempotent = o.Idempotent
	}

	// The routing key mixes the path with the request bytes, so repeats
	// of the same inquiry land on the same replica and hit its cache.
	key := hashBytes(hashBytes(fnvOffset64, []byte(rt.path)), body)
	g.mu.Lock()
	seq := g.ring.sequence(key, make([]string, 0, len(g.backends)))
	replicas := append([]string(nil), rt.backends...)
	g.mu.Unlock()

	resp := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(resp)
	var lastErr error
	for _, node := range seq {
		if !containsNode(replicas, node) {
			continue // backend does not serve this service
		}
		br := g.Breakers.For(node)
		if br.Allow() != nil {
			continue // open circuit: out of the healthy set
		}
		resp.Reset()
		res, err := g.Forward.Forward(r.Context(), node, rt.path, opKey, body, resp)
		br.Record(err != nil)
		if err == nil {
			g.relay(w, res, resp.Bytes())
			if !idempotent && res.Status == http.StatusOK {
				g.invalidate(rt, node)
			}
			g.stats.Record(opKey, time.Since(start), nil)
			return
		}
		lastErr = err
		if !idempotent {
			break
		}
	}

	var pe *soap.PortalError
	if lastErr != nil {
		pe = soap.NewPortalError(g.Name, soap.ErrCodeUnavailable,
			"backend failed for %s: %v", opKey, lastErr)
	} else {
		pe = soap.NewPortalError(g.Name, soap.ErrCodeUnavailable,
			"no healthy backend serves %s", rt.path)
	}
	f := pe.Fault()
	f.RetryAfter = time.Second
	g.stats.Record(opKey, time.Since(start), pe)
	soap.WriteFault(w, f, 0)
}

// relay writes one backend response through unchanged. A failed or short
// write means the client disconnected mid-relay: the backend answered
// fine, so the failure is recorded in the relay.write_errors counter
// (visible at /healthz) and deliberately NOT fed to the backend's breaker
// — opening a circuit over a flaky client would punish a healthy backend.
func (g *Gateway) relay(w http.ResponseWriter, res ForwardResult, body []byte) {
	w.Header().Set("Content-Type", soap.ContentType)
	if res.RetryAfter != "" {
		w.Header().Set("Retry-After", res.RetryAfter)
	}
	status := res.Status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	if n, err := w.Write(body); err != nil || n < len(body) {
		g.stats.AddCounter("relay.write_errors", 1)
	}
}

// invalidate propagates a forwarded write through the fleet: the handling
// backend has already flushed its own response cache (its cache
// middleware does so on any successful non-cacheable op), and every other
// replica of the service receives the authenticated __flush control op so
// stale inquiry answers disappear fleet-wide. Flushes run concurrently
// but are awaited before the response returns, so a caller that issues a
// read-after-write through the gateway cannot observe a stale cache.
func (g *Gateway) invalidate(rt *route, handled string) {
	if g.FlushToken == "" || g.Flush == nil {
		return
	}
	g.mu.Lock()
	replicas := append([]string(nil), rt.backends...)
	g.mu.Unlock()
	var wg sync.WaitGroup
	for _, b := range replicas {
		if b == handled {
			continue
		}
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			if err := g.Flush(b, rt.contract.TargetNS); err != nil {
				log.Printf("gateway %s: flush %s on %s: %v", g.Name, rt.contract.TargetNS, b, err)
			}
		}(b)
	}
	wg.Wait()
}

// serveWSIL publishes the aggregated WS-Inspection document: one entry
// per federated service pointing at the gateway's own WSDL republication,
// plus links to every backend's inspection document.
func (g *Gateway) serveWSIL(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	base := g.baseURL
	paths := make([]string, 0, len(g.routes))
	for p := range g.routes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	doc := &wsil.Document{}
	for _, p := range paths {
		rt := g.routes[p]
		doc.Services = append(doc.Services, wsil.ServiceEntry{
			Name:         rt.svcName,
			Abstract:     rt.abstract,
			WSDLLocation: base + rt.path + "?wsdl",
		})
	}
	for _, b := range g.backends {
		doc.Links = append(doc.Links, wsil.Link{Location: b + wsil.WellKnownPath})
	}
	g.mu.Unlock()
	buf := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(buf)
	doc.AppendTo(buf)
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// serveWSDL republishes one federated service's contract with the
// gateway as the endpoint, so clients discovering through the gateway
// bind to the gateway.
func (g *Gateway) serveWSDL(rt *route, w http.ResponseWriter) {
	g.mu.Lock()
	base := g.baseURL
	g.mu.Unlock()
	svc := &wsdl.Service{Name: rt.svcName, Interface: rt.contract, Endpoint: base + rt.path}
	buf := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(buf)
	svc.AppendTo(buf)
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// StartHealth begins polling every backend's /healthz at the given
// interval (2s when not positive), recording each probe on the backend's
// circuit: repeated failures open it — removing the node from the healthy
// ring — and a successful probe after the open window closes it again.
// Stop with Close.
func (g *Gateway) StartHealth(interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	g.healthStop = make(chan struct{})
	g.healthDone = make(chan struct{})
	go g.healthLoop(interval)
}

func (g *Gateway) healthLoop(interval time.Duration) {
	defer close(g.healthDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		g.probeAll()
		select {
		case <-g.healthStop:
			return
		case <-t.C:
		}
	}
}

// probeAll probes every backend whose circuit admits an attempt. A node
// inside its open window is skipped — Allow would reject the probe anyway
// — and re-probed once the window elapses (half-open).
func (g *Gateway) probeAll() {
	for _, b := range g.Backends() {
		br := g.Breakers.For(b)
		if br.Allow() != nil {
			continue
		}
		_, err := g.Fetch(b + "/healthz")
		br.Record(err != nil)
	}
}

// Close stops the health prober and releases pooled connections.
func (g *Gateway) Close() {
	if g.healthStop != nil {
		close(g.healthStop)
		<-g.healthDone
		g.healthStop = nil
	}
	g.pool.CloseIdle()
}

// fetchHTTP is the production Fetch: a GET through the per-backend pool.
func (g *Gateway) fetchHTTP(u string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	resp, err := g.pool.For(baseOf(u)).Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	buf := &bytes.Buffer{}
	if err := soap.ReadMessage(buf, resp.Body); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// flushHTTP is the production Flush: an authenticated POST to the
// backend's __flush control endpoint.
func (g *Gateway) flushHTTP(backend, serviceNS string) error {
	req, err := http.NewRequest(http.MethodPost,
		backend+rpc.FlushPath+"?ns="+url.QueryEscape(serviceNS), nil)
	if err != nil {
		return err
	}
	req.Header.Set(rpc.FlushTokenHeader, g.FlushToken)
	resp, err := g.pool.For(backend).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("flush %s on %s: HTTP %d", serviceNS, backend, resp.StatusCode)
	}
	return nil
}

// baseOf reduces a URL to its scheme://host base, the client-pool key.
func baseOf(u string) string {
	parsed, err := url.Parse(u)
	if err != nil || parsed.Host == "" {
		return u
	}
	return parsed.Scheme + "://" + parsed.Host
}

// Loopback returns an in-process transport that drives requests
// through the gateway's complete HTTP surface (mux, route handler,
// forwarding) without TCP — the gateway-side mirror of
// rpc.Server.Transport, for tests and benchmarks.
func (g *Gateway) Loopback() soap.Transport {
	return &loopbackTransport{g: g}
}

type loopbackTransport struct {
	g *Gateway
}

// RoundTripRawCtx serialises the request and drives it through the
// gateway mux with an in-memory response writer, keeping the HTTP status
// semantics of the wire path (only 200 and 500 carry envelopes). A
// context already done fails the call before dispatch, as over HTTP.
func (t *loopbackTransport) RoundTripRawCtx(ctx context.Context, endpoint, action string, req *soap.Envelope, resp *bytes.Buffer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	mark := resp.Len()
	buf := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(buf)
	req.AppendTo(buf)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("gateway: loopback request: %w", err)
	}
	hr.Header.Set("Content-Type", soap.ContentType)
	hr.Header.Set("SOAPAction", `"`+action+`"`)
	mw := &memResponse{header: http.Header{}, body: resp}
	t.g.mux.ServeHTTP(mw, hr)
	if mw.status == 0 {
		mw.status = http.StatusOK
	}
	if mw.status != http.StatusOK && mw.status != http.StatusInternalServerError {
		resp.Truncate(mark)
		return fmt.Errorf("gateway: endpoint %s returned HTTP %d", endpoint, mw.status)
	}
	return nil
}

// memResponse is the minimal in-memory http.ResponseWriter the loopback
// transport collects responses with.
type memResponse struct {
	header http.Header
	status int
	body   *bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.header }

func (m *memResponse) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}

func (m *memResponse) Write(p []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.body.Write(p)
}
