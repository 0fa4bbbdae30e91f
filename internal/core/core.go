// Package core is the portal Web Services framework — the paper's primary
// contribution realised as a library. It provides:
//
//   - Service: a WSDL contract plus operation handlers, the unit a portal
//     group deploys.
//   - Provider: a SOAP Service Provider (SSP), the separate server in
//     Figure 1 that hosts services, dispatches SOAP requests by namespace
//     and method, and publishes each service's WSDL.
//   - Client: a proxy bound to an endpoint and contract. The client
//     validates calls against the agreed interface before they leave the
//     process, which is how independently developed clients and servers
//     stay interoperable (Section 3.4).
//   - A composable server-side middleware chain and client interceptors
//     for the security layer (Section 4): the SAML assertion is attached
//     by a client interceptor and verified by a provider middleware,
//     without the service implementations knowing. The built-in
//     middlewares (auth enforcement, logging, recovery, limiting, stats)
//     live in the rpc package; core only defines the chain.
//
// The separation between the server that manages the user interface and
// the server that manages a particular service — "the key development for
// breaking the portal stove pipe" — is exactly the Provider/Client split.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/resilience"
	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

// Context carries per-request information into operation handlers.
type Context struct {
	// Operation is the invoked operation name.
	Operation string
	// ServiceNS is the service namespace of the call.
	ServiceNS string
	// Envelope is the full request envelope, giving handlers access to
	// header entries such as SAML assertions.
	Envelope *soap.Envelope
	// HTTPRequest is the underlying HTTP request when served over HTTP;
	// may be synthetic for loopback transports.
	HTTPRequest *http.Request
	// Principal is the authenticated identity, set by a verification
	// interceptor; empty for unauthenticated calls.
	Principal string
	// Decoded carries the kernel-typed arguments when the request came in
	// through the streaming decode fast path (DispatchRaw): the service's
	// StreamDecoder produced it straight from the wire tokens, and the
	// kernel handler consumes it instead of re-decoding the raw args. Nil
	// on the tree path. Middleware may read it as a fast-path marker but
	// should treat its dynamic type as the kernel's business.
	Decoded interface{}
	// Ctx is the request's lifetime: cancelled when the client goes away,
	// the deadline middleware's budget expires, or the server drains.
	// Handlers doing slow work should watch it. Use Context() for a
	// nil-safe read.
	Ctx context.Context
	// values holds interceptor-provided request-scoped data.
	values map[string]interface{}
	// abandoned is set (atomically; the dispatch goroutine and the
	// deadline middleware race on it by design) when the handler chain was
	// given up on mid-flight, so dispatch must not recycle pooled request
	// storage the runaway handler may still read.
	abandoned uint32
}

// Set stores a request-scoped value for downstream interceptors/handlers.
func (c *Context) Set(key string, v interface{}) {
	if c.values == nil {
		c.values = map[string]interface{}{}
	}
	c.values[key] = v
}

// Value retrieves a request-scoped value, or nil.
func (c *Context) Value(key string) interface{} {
	return c.values[key]
}

// Context returns the request's context.Context, never nil.
func (c *Context) Context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// Abandon marks the request's handler chain as given up on: a middleware
// that stops waiting for the chain (deadline expiry) must call it before
// returning, so dispatch leaks the request's pooled storage to the garbage
// collector instead of recycling it under the still-running goroutine.
func (c *Context) Abandon() { atomic.StoreUint32(&c.abandoned, 1) }

// Abandoned reports whether Abandon was called.
func (c *Context) Abandoned() bool { return atomic.LoadUint32(&c.abandoned) != 0 }

// Detach returns a shallow copy of the context for running the inner
// handler chain on a goroutine that may outlive the request: the copy gets
// its own values map, so a runaway handler mutating it cannot race with
// outer middleware reading the original. ctx becomes the copy's lifetime.
func (c *Context) Detach(ctx context.Context) *Context {
	d := &Context{
		Operation:   c.Operation,
		ServiceNS:   c.ServiceNS,
		Envelope:    c.Envelope,
		HTTPRequest: c.HTTPRequest,
		Principal:   c.Principal,
		Decoded:     c.Decoded,
		Ctx:         ctx,
	}
	if c.values != nil {
		d.values = make(map[string]interface{}, len(c.values))
		for k, v := range c.values {
			d.values[k] = v
		}
	}
	return d
}

// Adopt copies the mutable outcomes of a detached run back onto the
// original context. Only call it after the detached chain has returned in
// time (never after Abandon).
func (c *Context) Adopt(d *Context) {
	c.Principal = d.Principal
	c.values = d.values
}

// HandlerFunc implements one operation: it receives the decoded arguments
// and returns the out parameters or an error. Errors that are (or wrap)
// *soap.PortalError are relayed with the portal-standard error detail.
type HandlerFunc func(ctx *Context, args soap.Args) ([]soap.Value, error)

// Middleware wraps an operation handler, forming a composable chain:
// provider-wide middlewares run outermost, then service middlewares, then
// the handler. A middleware may inspect or mutate the context (e.g. set
// Principal after verifying an assertion), short-circuit with an error, or
// observe the outcome of the inner handler (timing, recovery, stats).
type Middleware func(next HandlerFunc) HandlerFunc

// ClientInterceptor may mutate an outbound request envelope before it is
// sent (e.g. attach a signed SAML assertion header). Request envelopes are
// streamed (soap.Call.WireEnvelope): AddHeader and AddBody both still
// serialise, and the call element itself is read from call at send time —
// but env.Body does not expose the call element as a tree, so interceptors
// that need to inspect the outgoing parameters should read call.Params.
type ClientInterceptor func(call *soap.Call, env *soap.Envelope) error

// StreamDecoder decodes request parameters straight from the streaming
// body reader — the treeless fast path the rpc kernel compiles per
// operation at build time. DecodeCallStream is called with the reader
// positioned after the operation element's start tag; it returns the
// kernel-typed argument value (delivered to handlers via Context.Decoded),
// the raw wire values for middleware that inspects or keys off them
// (identical to what soap.ParseCall would have produced), and ok=false
// when the operation cannot be stream-decoded — unknown operation,
// xml-typed parameters, a wire shape outside the streaming subset, or a
// value that fails validation (the tree path then reproduces the exact
// fault). On !ok nothing may have been committed anywhere.
type StreamDecoder interface {
	DecodeCallStream(op string, r *soap.BodyReader) (decoded interface{}, raw []soap.Value, ok bool)
}

// StreamReleaser is an optional extension of StreamDecoder for decoders
// that hand out pooled scratch inside decoded/raw. The provider calls
// ReleaseStream exactly once per successful DecodeCallStream, after the
// dispatch completes (the handler chain has returned and the response is
// built from handler-owned values) or when the request is abandoned to
// the tree fallback — the two points where nothing can still reference
// the request's decode products under the handler-retention contract.
type StreamReleaser interface {
	ReleaseStream(decoded interface{}, raw []soap.Value)
}

// Service couples a WSDL contract with its operation handlers.
type Service struct {
	// Contract is the abstract interface this service implements.
	Contract *wsdl.Interface
	// Path is the HTTP path the provider mounts the service at, defaulting
	// to "/" + Contract.Name.
	Path string
	// Stream, when non-nil, lets the provider decode requests for this
	// service through the streaming fast path (set by rpc.Def.Build).
	Stream StreamDecoder
	// handlers maps operation name to implementation.
	handlers map[string]HandlerFunc
	// middleware wraps this service's handlers only.
	middleware []Middleware
	// composed memoizes fully chained handlers per operation; guarded by
	// the owning provider's lock and rebuilt after any Use call.
	composed map[string]HandlerFunc
}

// NewService creates a service for the contract.
func NewService(contract *wsdl.Interface) *Service {
	return &Service{
		Contract: contract,
		Path:     "/" + contract.Name,
		handlers: map[string]HandlerFunc{},
	}
}

// Handle registers the implementation of a contract operation. It panics if
// the operation is not part of the contract: registering an uncontracted
// method is a programming error that would silently break interoperability.
func (s *Service) Handle(operation string, h HandlerFunc) *Service {
	if s.Contract.Operation(operation) == nil {
		panic(fmt.Sprintf("core: operation %q not in contract %s", operation, s.Contract.Name))
	}
	s.handlers[operation] = h
	return s
}

// Use appends a middleware wrapping this service's handlers. Configure
// middleware during wiring, before the service starts dispatching.
func (s *Service) Use(mw Middleware) *Service {
	s.middleware = append(s.middleware, mw)
	s.composed = nil
	return s
}

// Validate verifies every contract operation has a handler; deploying an
// incomplete implementation is what Validate prevents.
func (s *Service) Validate() error {
	var missing []string
	for _, op := range s.Contract.Operations {
		if _, ok := s.handlers[op.Name]; !ok {
			missing = append(missing, op.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("core: service %s missing handlers: %s", s.Contract.Name, strings.Join(missing, ", "))
	}
	return nil
}

// Provider is a SOAP Service Provider: one web server hosting one or more
// services, each at its own path, with WSDL publication.
type Provider struct {
	// Name identifies the provider (e.g. "SDSC-SSP") in faults and logs.
	Name string
	// BaseURL is the externally visible URL prefix used in published WSDL
	// endpoint addresses, e.g. "http://hotpage.sdsc.edu:8080".
	BaseURL string

	mu         sync.RWMutex
	byNS       map[string]*Service
	byPath     map[string]*Service
	middleware []Middleware
	// wsdlCache holds the rendered WSDL bytes per service path so the
	// ?wsdl GET endpoint does not re-render the document on every fetch.
	// Entries are keyed to the BaseURL they were rendered for, so a
	// SetBaseURL after wiring (httptest, port 0) invalidates them.
	wsdlCache map[string]wsdlCacheEntry
}

type wsdlCacheEntry struct {
	baseURL string
	doc     []byte
}

// NewProvider creates an empty provider.
func NewProvider(name, baseURL string) *Provider {
	return &Provider{
		Name:    name,
		BaseURL: strings.TrimSuffix(baseURL, "/"),
		byNS:    map[string]*Service{},
		byPath:  map[string]*Service{},
	}
}

// SetBaseURL rewrites the externally visible URL prefix under the
// provider's lock, keeping the WSDL cache's keyed-to-base entries coherent
// with concurrent readers. Prefer it over assigning BaseURL directly once
// the provider is serving.
func (p *Provider) SetBaseURL(baseURL string) {
	p.mu.Lock()
	p.BaseURL = strings.TrimSuffix(baseURL, "/")
	p.mu.Unlock()
}

// Use appends a provider-wide middleware that wraps every service's chain
// (outermost first: provider middlewares run before service middlewares).
func (p *Provider) Use(mw Middleware) *Provider {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.middleware = append(p.middleware, mw)
	for _, s := range p.byNS {
		s.composed = nil
	}
	return p
}

// Register deploys a service. The service must validate, and its namespace
// and path must be unique within the provider.
func (p *Provider) Register(s *Service) error {
	if err := s.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ns := s.Contract.TargetNS
	if _, dup := p.byNS[ns]; dup {
		return fmt.Errorf("core: provider %s already serves namespace %q", p.Name, ns)
	}
	if _, dup := p.byPath[s.Path]; dup {
		return fmt.Errorf("core: provider %s already serves path %q", p.Name, s.Path)
	}
	p.byNS[ns] = s
	p.byPath[s.Path] = s
	return nil
}

// MustRegister registers or panics; for static wiring in examples and mains.
func (p *Provider) MustRegister(s *Service) {
	if err := p.Register(s); err != nil {
		panic(err)
	}
}

// Services returns the deployed services sorted by contract name.
func (p *Provider) Services() []*Service {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*Service, 0, len(p.byNS))
	for _, s := range p.byNS {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Contract.Name < out[j].Contract.Name })
	return out
}

// EndpointFor returns the externally visible endpoint URL of a deployed
// service.
func (p *Provider) EndpointFor(s *Service) string {
	return p.BaseURL + s.Path
}

// WSDLFor renders the WSDL document for a deployed service, with the
// provider's endpoint address.
func (p *Provider) WSDLFor(s *Service) string {
	svc := &wsdl.Service{Name: s.Contract.Name + "Service", Interface: s.Contract, Endpoint: p.EndpointFor(s)}
	return svc.Render()
}

// wsdlBytesFor returns the rendered WSDL for a deployed service, cached
// per service path. Contracts are immutable after registration, so the
// only invalidation trigger is a BaseURL rewrite. The document is rendered
// from the same BaseURL snapshot the cache entry is keyed to, so a
// concurrent SetBaseURL can never poison an entry with mismatched endpoint
// addresses.
func (p *Provider) wsdlBytesFor(s *Service) []byte {
	p.mu.RLock()
	e, ok := p.wsdlCache[s.Path]
	base := p.BaseURL
	p.mu.RUnlock()
	if ok && e.baseURL == base {
		return e.doc
	}
	svc := &wsdl.Service{Name: s.Contract.Name + "Service", Interface: s.Contract, Endpoint: base + s.Path}
	doc := []byte(svc.Render())
	p.mu.Lock()
	if p.wsdlCache == nil {
		p.wsdlCache = make(map[string]wsdlCacheEntry)
	}
	p.wsdlCache[s.Path] = wsdlCacheEntry{baseURL: base, doc: doc}
	p.mu.Unlock()
	return doc
}

// Dispatch processes one request envelope addressed to any hosted service.
// It is the EnvelopeHandler for the whole provider: routing is by the call
// element's namespace, so one SSP port can front every service, exactly as
// the paper's Apache SOAP rpcrouter did. ctx scopes the request (HTTP
// request context on the wire path, caller's context in-process) and is
// surfaced to handlers as Context.Ctx. When the handler chain was
// abandoned mid-flight (deadline middleware), the returned error is marked
// with soap.Hold so transports leak the pooled request tree instead of
// recycling it under the runaway goroutine.
func (p *Provider) Dispatch(ctx context.Context, env *soap.Envelope, httpReq *http.Request) (*soap.Envelope, error) {
	call, err := soap.ParseCall(env)
	if err != nil {
		return nil, err
	}
	p.mu.RLock()
	svc := p.byNS[call.ServiceNS]
	p.mu.RUnlock()
	if svc == nil {
		return nil, &soap.Fault{Code: soap.FaultClient, Actor: p.Name,
			String: fmt.Sprintf("no service for namespace %q", call.ServiceNS)}
	}
	h := p.handlerFor(svc, call.Method)
	if h == nil {
		return nil, soap.NewPortalError(svc.Contract.Name, soap.ErrCodeNoSuchMethod,
			"operation %q not implemented", call.Method)
	}
	c := &Context{
		Operation:   call.Method,
		ServiceNS:   call.ServiceNS,
		Envelope:    env,
		HTTPRequest: httpReq,
		Ctx:         ctx,
	}
	returns, err := h(c, soap.Args(call.Params))
	if err != nil {
		if c.Abandoned() {
			err = soap.Hold(err)
		}
		return nil, err
	}
	resp := &soap.Response{ServiceNS: call.ServiceNS, Method: call.Method, Returns: returns}
	// The response envelope is streamed: when the transport serialises it,
	// the operation element and typed return values are written directly to
	// the output buffer, with no element tree in between.
	return resp.WireEnvelope(), nil
}

// handlerFor returns the fully composed middleware chain for one
// operation, composing and memoizing it on first use (Use invalidates the
// memo, so wiring-time changes still apply); nil when the operation has no
// handler.
func (p *Provider) handlerFor(svc *Service, method string) HandlerFunc {
	p.mu.RLock()
	h := svc.composed[method]
	p.mu.RUnlock()
	if h != nil {
		return h
	}
	base, ok := svc.handlers[method]
	if !ok {
		return nil
	}
	p.mu.Lock()
	h = Chain(base, p.middleware, svc.middleware)
	if svc.composed == nil {
		svc.composed = make(map[string]HandlerFunc, len(svc.handlers))
	}
	svc.composed[method] = h
	p.mu.Unlock()
	return h
}

// DispatchRaw is the streaming decode fast path: it dispatches a request
// straight from its serialised bytes, walking envelope tokens into typed
// arguments through the target service's StreamDecoder without building
// an element tree. handled=false means the request is outside the
// streaming subset (headers present, xml-typed or malformed parameters,
// unknown service or operation, foreign envelope shapes ...) and the
// caller must re-dispatch through Dispatch, whose tree path is the
// semantic authority for every such case. The decision is made before the
// handler runs: once handled is true the operation has executed and the
// result is final, errors converting to faults exactly as for Dispatch.
func (p *Provider) DispatchRaw(ctx context.Context, body []byte, httpReq *http.Request) (resp *soap.Envelope, handled bool, err error) {
	r := soap.AcquireBodyReader(body)
	cursorHeld := true
	defer func() {
		if cursorHeld {
			r.Release()
		}
	}()
	ns, method, ok := r.Begin()
	if !ok {
		return nil, false, nil
	}
	p.mu.RLock()
	svc := p.byNS[ns]
	p.mu.RUnlock()
	if svc == nil || svc.Stream == nil {
		return nil, false, nil
	}
	decoded, raw, ok := svc.Stream.DecodeCallStream(method, r)
	if !ok {
		return nil, false, nil
	}
	// release recycles the decoder's pooled scratch (when it pools any) at
	// every exit past this point: the decode products must not outlive the
	// dispatch, which the handler-retention contract guarantees.
	release := func() {
		if rel, ok := svc.Stream.(StreamReleaser); ok {
			rel.ReleaseStream(decoded, raw)
		}
	}
	if !r.Finish() {
		release()
		return nil, false, nil
	}
	h := p.handlerFor(svc, method)
	if h == nil {
		release()
		return nil, false, nil // NoSuchMethod fault via the tree path
	}
	// Decode is complete and its products are copies: the cursor and
	// scanner go back to their pools now, before the handler runs, so a
	// slow or cancelled handler never pins them.
	cursorHeld = false
	r.Release()
	// The fast path only handles headerless requests, so an empty envelope
	// is a faithful view for middleware that inspects ctx.Envelope (e.g.
	// SAML header checks see the same absence either way). Context, the
	// request envelope view, the response, and the response envelope all
	// share one request-scoped allocation.
	var cx struct {
		ctx    Context
		env    soap.Envelope
		out    soap.Response
		outEnv soap.Envelope
	}
	cx.ctx = Context{
		Operation:   method,
		ServiceNS:   ns,
		Envelope:    &cx.env,
		HTTPRequest: httpReq,
		Decoded:     decoded,
		Ctx:         ctx,
	}
	returns, err := h(&cx.ctx, soap.Args(raw))
	if err != nil {
		// An abandoned handler may still read the decoded args, so their
		// pooled scratch must leak to the garbage collector, not recycle.
		if !cx.ctx.Abandoned() {
			release()
		}
		return nil, true, err
	}
	cx.out = soap.Response{ServiceNS: ns, Method: method, Returns: returns}
	cx.out.WireEnvelopeInto(&cx.outEnv)
	release()
	return &cx.outEnv, true, nil
}

// Loopback returns the in-process transport for this provider with both
// dispatch paths wired: the streaming fast path first, the pooled tree
// path as fallback — the exact wiring ServeHTTP uses.
func (p *Provider) Loopback() *soap.LoopbackTransport {
	return &soap.LoopbackTransport{Handler: p.Dispatch, Raw: p.DispatchRaw}
}

// Chain composes middleware groups around a handler. Groups are applied in
// order with earlier groups outermost, and within a group earlier
// middlewares are outermost, so Chain(h, provider, service) runs provider
// middlewares first on the way in and last on the way out.
func Chain(h HandlerFunc, groups ...[]Middleware) HandlerFunc {
	for g := len(groups) - 1; g >= 0; g-- {
		mws := groups[g]
		for i := len(mws) - 1; i >= 0; i-- {
			h = mws[i](h)
		}
	}
	return h
}

// ServeHTTP implements http.Handler: POST dispatches SOAP; GET with ?wsdl
// on a service path returns its WSDL document (the paper's UDDI entries
// point at exactly these URLs).
func (p *Provider) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		if _, ok := r.URL.Query()["wsdl"]; ok {
			p.mu.RLock()
			svc := p.byPath[r.URL.Path]
			p.mu.RUnlock()
			if svc == nil {
				http.NotFound(w, r)
				return
			}
			doc := p.wsdlBytesFor(svc)
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
			_, _ = w.Write(doc)
			return
		}
		http.Error(w, "soap service provider: POST SOAP or GET ?wsdl", http.StatusBadRequest)
		return
	}
	soap.HandlerWithRaw(p.Dispatch, p.DispatchRaw).ServeHTTP(w, r)
}

// Client is a proxy bound to a service endpoint and contract. It validates
// each call against the contract before sending: an interoperability bug
// (wrong operation, wrong arity, wrong parameter name or type) surfaces at
// the caller rather than as a confusing remote fault.
type Client struct {
	// Transport carries the SOAP messages.
	Transport soap.Transport
	// Endpoint is the bound service URL.
	Endpoint string
	// Contract is the agreed interface.
	Contract *wsdl.Interface
	// Strict disables contract validation when false-positive flexibility
	// is needed (defaults to strict).
	Strict bool
	// Retry, when non-nil, retries failed calls with backoff. Only
	// failures that cannot have executed server-side (ServerBusy and
	// ServiceUnavailable rejections) are retried unconditionally;
	// transport failures and timeouts are retried only for operations the
	// contract declares Idempotent. The caller's context bounds the whole
	// retry loop.
	Retry *resilience.RetryPolicy
	// Breakers, when non-nil, applies a per-endpoint circuit breaker: a
	// dead backend opens the circuit and subsequent calls fail fast with
	// resilience.ErrOpen instead of waiting out another timeout.
	Breakers *resilience.BreakerSet

	interceptors []ClientInterceptor
}

// Bind constructs a client from a WSDL document, taking the endpoint from
// the service port address — the dynamic binding step of Figure 1.
func Bind(t soap.Transport, wsdlDoc string) (*Client, error) {
	svc, err := wsdl.Parse(wsdlDoc)
	if err != nil {
		return nil, err
	}
	if svc.Endpoint == "" {
		return nil, fmt.Errorf("core: WSDL for %s has no endpoint address", svc.Name)
	}
	return &Client{Transport: t, Endpoint: svc.Endpoint, Contract: svc.Interface, Strict: true}, nil
}

// BindURL fetches a WSDL document from url (conventionally endpoint+"?wsdl")
// with the given HTTP client and binds to it.
func BindURL(t soap.Transport, hc *http.Client, url string) (*Client, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Get(url)
	if err != nil {
		return nil, fmt.Errorf("core: fetch WSDL %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("core: fetch WSDL %s: HTTP %d", url, resp.StatusCode)
	}
	return Bind(t, string(body))
}

// NewClient constructs a client directly from a known contract and
// endpoint (static binding).
func NewClient(t soap.Transport, endpoint string, contract *wsdl.Interface) *Client {
	return &Client{Transport: t, Endpoint: endpoint, Contract: contract, Strict: true}
}

// Use appends a client interceptor.
func (c *Client) Use(i ClientInterceptor) *Client {
	c.interceptors = append(c.interceptors, i)
	return c
}

// prepare validates a call against the contract, builds the streamed
// request envelope, and runs the client interceptors.
func (c *Client) prepare(operation string, params []soap.Value) (*soap.Envelope, error) {
	if c.Strict {
		if err := c.validate(operation, params); err != nil {
			return nil, err
		}
	}
	// Call and envelope share one request-scoped allocation; the envelope
	// reads the call at serialisation time, so interceptor amendments to
	// either still land on the wire.
	var m struct {
		call soap.Call
		env  soap.Envelope
	}
	m.call = soap.Call{ServiceNS: c.Contract.TargetNS, Method: operation, Params: params}
	m.call.WireEnvelopeInto(&m.env)
	for _, i := range c.interceptors {
		if err := i(&m.call, &m.env); err != nil {
			return nil, err
		}
	}
	return &m.env, nil
}

// idempotent reports the contract's idempotency declaration for operation.
func (c *Client) idempotent(operation string) bool {
	op := c.Contract.Operation(operation)
	return op != nil && op.Idempotent
}

// retryable reports whether err may be retried given the operation's
// idempotency. ServerBusy and ServiceUnavailable are pre-execution
// rejections (load shedding, drain) and always retryable; timeouts and
// transport failures are ambiguous — the request may have executed — so
// only idempotent operations retry them. Faults and context expiry are
// definitive.
func retryable(err error, idempotent bool) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if pe := soap.AsPortalError(err); pe != nil {
		switch pe.Code {
		case soap.ErrCodeServerBusy, soap.ErrCodeUnavailable:
			return true
		case soap.ErrCodeTimeout:
			return idempotent
		default:
			return false
		}
	}
	if soap.AsFault(err) != nil {
		return false // a definitive answer, just not the wanted one
	}
	return idempotent // transport-level failure: execution is ambiguous
}

// endpointFailure classifies an attempt outcome for the circuit breaker:
// any response from the endpoint — success or fault — proves it alive;
// transport-level failures (including timeouts) count against it.
func endpointFailure(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) {
		return false
	}
	return soap.AsFault(err) == nil && soap.AsPortalError(err) == nil
}

// withResilience runs one logical call as one or more attempts under the
// client's breaker and retry policy. attempt must be safely re-runnable.
func (c *Client) withResilience(ctx context.Context, operation string, attempt func(ctx context.Context) error) error {
	if c.Retry == nil && c.Breakers == nil {
		return attempt(ctx)
	}
	var br *resilience.Breaker
	if c.Breakers != nil {
		br = c.Breakers.For(c.Endpoint)
	}
	idem := c.idempotent(operation)
	attempts := c.Retry.Attempts()
	for n := 0; ; n++ {
		if br != nil {
			if err := br.Allow(); err != nil {
				return fmt.Errorf("core: %s %s: %w", c.Endpoint, operation, err)
			}
		}
		err := attempt(ctx)
		if br != nil {
			br.Record(endpointFailure(err))
		}
		if err == nil || n+1 >= attempts || !retryable(err, idem) {
			return err
		}
		if werr := c.Retry.Wait(ctx, n); werr != nil {
			return err // context expired mid-backoff: surface the last real failure
		}
	}
}

// Call invokes a contract operation under ctx, whose deadline bounds the
// transport round trip and the whole retry loop. The response envelope is
// parsed into a pooled element arena; the returned release function must
// be called exactly once when the caller is done with the response, and
// afterwards no *xmlutil.Element reachable from it (XML-valued returns,
// fault details) may be retained. Strings extracted from the response stay
// valid forever. On error the response storage has already been reclaimed
// (fault details are detached first, so a returned *soap.Fault is safe to
// keep) and the release function is a no-op.
func (c *Client) Call(ctx context.Context, operation string, params ...soap.Value) (*soap.Response, func(), error) {
	noop := func() {}
	env, err := c.prepare(operation, params)
	if err != nil {
		return nil, noop, err
	}
	action := c.Contract.TargetNS + "#" + operation
	buf := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(buf)
	var resp *soap.Response
	release := noop
	err = c.withResilience(ctx, operation, func(ctx context.Context) error {
		buf.Reset()
		resp, release = nil, noop
		if rerr := c.Transport.RoundTripRawCtx(ctx, c.Endpoint, action, env, buf); rerr != nil {
			return rerr
		}
		// Streaming fast path: scalar/array responses decode straight from
		// the wire tokens with nothing to release. Faults, XML-valued
		// returns, and anything unusual fall back to the pooled tree parse.
		if r, ok := soap.ParseResponseStream(buf.Bytes()); ok {
			resp = r
			return nil
		}
		respEnv, doc, perr := soap.ParseEnvelopeBytesPooled(buf.Bytes())
		if perr != nil {
			return perr
		}
		r, rerr := soap.ParseResponse(respEnv)
		if rerr != nil {
			// The error (usually a *soap.Fault) outlives the arena: detach
			// any detail trees before recycling the envelope storage.
			if r != nil && r.Fault != nil {
				detail := make([]*xmlutil.Element, len(r.Fault.Detail))
				for i, d := range r.Fault.Detail {
					detail[i] = d.Clone()
				}
				r.Fault.Detail = detail
			}
			doc.Release()
			resp = r
			return rerr
		}
		resp, release = r, doc.Release
		return nil
	})
	return resp, release, err
}

// validate checks the call against the contract.
func (c *Client) validate(operation string, params []soap.Value) error {
	op := c.Contract.Operation(operation)
	if op == nil {
		return fmt.Errorf("core: operation %q not in contract %s", operation, c.Contract.Name)
	}
	if len(params) != len(op.Input) {
		return fmt.Errorf("core: %s.%s takes %d parameters, got %d",
			c.Contract.Name, operation, len(op.Input), len(params))
	}
	for i, want := range op.Input {
		got := params[i]
		if got.Name != want.Name {
			return fmt.Errorf("core: %s.%s parameter %d is %q, contract says %q",
				c.Contract.Name, operation, i, got.Name, want.Name)
		}
		if !typeMatches(want.Type, got) {
			return fmt.Errorf("core: %s.%s parameter %q has wire type %q, contract says %q",
				c.Contract.Name, operation, want.Name, wireType(got), want.Type)
		}
	}
	return nil
}

func typeMatches(contractType string, v soap.Value) bool {
	return wireType(v) == contractType
}

func wireType(v soap.Value) string {
	switch {
	case v.XML != nil:
		return "xml"
	case v.Type == "Array":
		return "stringArray"
	default:
		return v.Type
	}
}

// CallText invokes an operation and returns the first out parameter's text;
// the one-string-in, one-string-out convenience shape most of the paper's
// services expose. The response is released before returning — the
// extracted string is always safe to keep.
func (c *Client) CallText(operation string, params ...soap.Value) (string, error) {
	resp, release, err := c.Call(context.TODO(), operation, params...)
	if err != nil {
		return "", err
	}
	defer release()
	return resp.ReturnText(""), nil
}

// CallXMLCopy invokes an operation and returns a copy of the first out
// parameter's XML payload. Only the payload subtree is copied out of the
// pooled response arena, so the caller owns a minimal tree instead of the
// whole envelope.
func (c *Client) CallXMLCopy(operation string, params ...soap.Value) (*xmlutil.Element, error) {
	resp, release, err := c.Call(context.TODO(), operation, params...)
	if err != nil {
		return nil, err
	}
	defer release()
	v, ok := resp.Return("")
	if !ok || v.XML == nil {
		return nil, fmt.Errorf("core: %s.%s returned no XML payload", c.Contract.Name, operation)
	}
	return v.XML.Clone(), nil
}

// CallStrings invokes an operation and returns the first out parameter as a
// string slice. Like CallText it releases the response before returning.
func (c *Client) CallStrings(operation string, params ...soap.Value) ([]string, error) {
	resp, release, err := c.Call(context.TODO(), operation, params...)
	if err != nil {
		return nil, err
	}
	defer release()
	v, ok := resp.Return("")
	if !ok {
		return nil, fmt.Errorf("core: %s.%s returned nothing", c.Contract.Name, operation)
	}
	out := make([]string, 0, len(v.Items))
	for _, item := range v.Items {
		out = append(out, item.Text)
	}
	return out, nil
}
