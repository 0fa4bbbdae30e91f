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
	"bytes"
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
	// Envelope is the request envelope, giving handlers access to header
	// entries such as SAML assertions. It carries the first Header's
	// entries only: the body entry arrives decoded as the handler's args.
	Envelope *soap.Envelope
	// Principal is the authenticated identity, set by a verification
	// interceptor; empty for unauthenticated calls.
	Principal string
	// Ctx is the request's lifetime: cancelled when the client goes away,
	// the deadline middleware's budget expires, or the server drains.
	// Handlers doing slow work should watch it; it also carries any other
	// request-scoped values. Use Context() for a nil-safe read.
	Ctx context.Context
	// abandoned is set (atomically; the dispatch goroutine and the
	// deadline middleware race on it by design) when the handler chain was
	// given up on mid-flight, so dispatch must not recycle pooled request
	// storage the runaway handler may still read.
	abandoned uint32
	// raw is the serialised response envelope a middleware answered with
	// (Respond); nil when the chain's returns are to be encoded.
	raw []byte
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

// Respond answers the request with raw, a complete serialised response
// envelope (XML declaration included), which the provider sends verbatim
// instead of encoding the chain's returns. A middleware that answers this
// way returns nil values and a nil error, so middleware outside it sees nil
// returns; an error returned further out still turns the answer into a
// fault. raw is shared, not copied: it must never be modified afterwards.
// The response cache answers its hits and the misses it stores this way.
func (c *Context) Respond(raw []byte) { c.raw = raw }

// Detach returns a copy of the context for running the inner handler chain
// on a goroutine that may outlive the request, so a runaway handler
// mutating the copy cannot race with outer middleware reading the
// original. ctx becomes the copy's lifetime.
func (c *Context) Detach(ctx context.Context) *Context {
	return &Context{Operation: c.Operation, ServiceNS: c.ServiceNS, Envelope: c.Envelope,
		Principal: c.Principal, Ctx: ctx}
}

// Adopt copies the mutable outcomes of a detached run back onto the
// original context: the Principal, a Respond answer, and an Abandon from a
// middleware inside the run (a nested deadline), so dispatch still keeps
// its pooled storage away from the handler that one gave up on. Only call
// it after the detached chain has returned in time (never after Abandon).
func (c *Context) Adopt(d *Context) {
	c.Principal = d.Principal
	c.raw = d.raw
	if atomic.LoadUint32(&d.abandoned) != 0 {
		c.Abandon()
	}
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

// Service couples a WSDL contract with its operation handlers.
type Service struct {
	// Contract is the abstract interface this service implements.
	Contract *wsdl.Interface
	// Path is the HTTP path the provider mounts the service at, defaulting
	// to "/" + Contract.Name.
	Path string
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

// Serve answers one serialised request addressed to any hosted service;
// it is the soap.ServeFunc both the HTTP binding (ServeHTTP) and the
// in-process transport (Loopback) run, so a request gets the same bytes
// however it arrives. Routing is by the call element's namespace, so one
// SSP port can front every service, exactly as the paper's Apache SOAP
// rpcrouter did. ctx scopes the request (HTTP request context on the wire
// path, caller's context in-process) and is surfaced to handlers as
// Context.Ctx.
//
// Serve is one straight path: the pooled soap.BodyReader decodes the
// request in one pass, Serve looks up the service and the operation's
// handler chain, and invoke runs it. The response or fault envelope is
// appended to out, and the returned error is non-nil exactly when out
// holds a fault. The decoded request is recycled once the response is
// rendered, unless the handler chain was abandoned mid-flight (deadline
// middleware): a runaway goroutine may still read its arguments, so it is
// left to the garbage collector.
func (p *Provider) Serve(ctx context.Context, body []byte, out *bytes.Buffer) error {
	r := soap.AcquireBodyReader()
	ns, method, err := r.Decode(body)
	if err != nil {
		r.Release()
		soap.FaultEnvelope(err, soap.FaultClient).AppendTo(out)
		return err
	}
	var resp *soap.Envelope
	abandoned := false
	p.mu.RLock()
	svc := p.byNS[ns]
	p.mu.RUnlock()
	if svc == nil {
		err = &soap.Fault{Code: soap.FaultClient, Actor: p.Name,
			String: fmt.Sprintf("no service for namespace %q", ns)}
	} else if h := p.handlerFor(svc, method); h == nil {
		err = soap.NewPortalError(svc.Contract.Name, soap.ErrCodeNoSuchMethod,
			"operation %q not implemented", method)
	} else {
		resp, abandoned, err = invoke(ctx, h, r.Envelope(), ns, method, r.Params())
	}
	if err != nil {
		resp = soap.FaultEnvelope(err, soap.FaultServer)
	}
	resp.AppendTo(out)
	if !abandoned {
		r.Release()
	}
	return err
}

// request is one dispatched request's storage: its Context, the response
// and the response envelope share one allocation.
type request struct {
	ctx    Context
	out    soap.Response
	outEnv soap.Envelope
}

// invoke runs the composed chain h on one decoded request and builds its
// response envelope, whose operation element and typed return values are
// written straight to the output buffer when Serve serialises it, or which
// relays the bytes a middleware answered with (Context.Respond). abandoned
// reports that the chain was given up on mid-flight (Context.Abandon), so
// the caller must leak rather than recycle the request's pooled storage.
func invoke(ctx context.Context, h HandlerFunc, env *soap.Envelope, ns, method string,
	args []soap.Value) (resp *soap.Envelope, abandoned bool, err error) {
	rq := new(request)
	rq.ctx = Context{Operation: method, ServiceNS: ns, Envelope: env, Ctx: ctx}
	returns, err := h(&rq.ctx, soap.Args(args))
	abandoned = atomic.LoadUint32(&rq.ctx.abandoned) != 0
	if err != nil {
		return nil, abandoned, err
	}
	if rq.ctx.raw != nil {
		soap.RawEnvelopeInto(&rq.outEnv, rq.ctx.raw)
		return &rq.outEnv, abandoned, nil
	}
	rq.out = soap.Response{ServiceNS: ns, Method: method, Returns: returns}
	rq.out.WireEnvelopeInto(&rq.outEnv)
	return &rq.outEnv, abandoned, nil
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
	h = chain(base, p.middleware, svc.middleware)
	if svc.composed == nil {
		svc.composed = make(map[string]HandlerFunc, len(svc.handlers))
	}
	svc.composed[method] = h
	p.mu.Unlock()
	return h
}

// chain composes middleware groups around a handler. Groups are applied in
// order with earlier groups outermost, and within a group earlier
// middlewares are outermost, so chain(h, provider, service) runs provider
// middlewares first on the way in and last on the way out.
func chain(h HandlerFunc, groups ...[]Middleware) HandlerFunc {
	for g := len(groups) - 1; g >= 0; g-- {
		mws := groups[g]
		for i := len(mws) - 1; i >= 0; i-- {
			h = mws[i](h)
		}
	}
	return h
}

// Loopback returns the in-process transport for this provider, answering
// through Serve exactly as ServeHTTP does.
func (p *Provider) Loopback() *soap.LoopbackTransport {
	return &soap.LoopbackTransport{Serve: p.Serve}
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
	soap.Handler(p.Serve).ServeHTTP(w, r)
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
	return &Client{Transport: t, Endpoint: svc.Endpoint, Contract: svc.Interface}, nil
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
	return &Client{Transport: t, Endpoint: endpoint, Contract: contract}
}

// Use appends a client interceptor.
func (c *Client) Use(i ClientInterceptor) *Client {
	c.interceptors = append(c.interceptors, i)
	return c
}

// prepare validates a call against the contract, builds the streamed
// request envelope, and runs the client interceptors.
func (c *Client) prepare(operation string, params []soap.Value) (*soap.Envelope, error) {
	if err := c.validate(operation, params); err != nil {
		return nil, err
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
// transport round trip and the whole retry loop. The answer is decoded in
// one pass by soap.DecodeResponse: typed scalar and array returns come
// straight off the wire tokens, and XML-valued returns are carved into a
// pooled element arena. The returned release function must be called
// exactly once when the caller is done with the response, and afterwards
// no *xmlutil.Element reachable from it may be retained; it is a no-op
// when nothing was carved. Returns and every string in the response stay
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
		var derr error
		resp, release, derr = soap.DecodeResponse(buf.Bytes())
		return derr
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
	case v.XML != nil || v.WriteXML != nil:
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

// CallXML invokes an operation under ctx and runs decode on the first out
// parameter's XML payload while it still sits in the pooled response
// arena, releasing the arena when decode returns. decode must copy out
// whatever it keeps: strings read from the tree stay valid forever, but no
// *xmlutil.Element it is handed may outlive the call. decode's error is
// returned as is.
func (c *Client) CallXML(ctx context.Context, operation string, decode func(*xmlutil.Element) error, params ...soap.Value) error {
	resp, release, err := c.Call(ctx, operation, params...)
	if err != nil {
		return err
	}
	defer release()
	v, ok := resp.Return("")
	if !ok || v.XML == nil {
		return fmt.Errorf("core: %s.%s returned no XML payload", c.Contract.Name, operation)
	}
	return decode(v.XML)
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
