package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"time"

	"repro/internal/xmlutil"
)

// ContentType is the media type of SOAP 1.1 messages.
const ContentType = "text/xml; charset=utf-8"

// maxMessageBytes bounds how much of a request or response body is read.
// It is xmlutil.MessageLimit, in a variable only so boundary tests can
// exercise the limit without allocating 64 MiB bodies; production code
// treats it as a constant.
var maxMessageBytes int64 = xmlutil.MessageLimit

// MaxMessageBytes reports the message size limit both transport directions
// enforce.
func MaxMessageBytes() int64 { return maxMessageBytes }

// ErrMessageTooLarge marks a message rejected for exceeding the transport
// message limit. Oversize bodies are detected, never silently clipped: a
// truncated envelope would otherwise surface as a misleading XML parse
// error deep in the decoder.
var ErrMessageTooLarge = errors.New("soap: message too large")

// maxPresize caps how much of a declared length ReadMessage reserves
// before the body arrives. A declaration is unverified: trusting it in
// full would let a peer pin up to the message limit per connection with a
// header alone. Past the cap the buffer grows only as bytes arrive, which
// costs the sender the bandwidth to send them.
const maxPresize = 1 << 20

// ReadMessage appends r's bytes to dst, enforcing the message limit.
// declared is the length the sender announced (an HTTP Content-Length), or
// -1 when unknown. A declared length over the limit is rejected with
// ErrMessageTooLarge before anything is read. Otherwise a known length
// presizes dst, up to maxPresize, with bytes.MinRead to spare: ReadFrom
// needs that much free space to observe EOF, and without it a buffer
// holding exactly the body would double just to read nothing. The limit
// is enforced on the bytes that actually arrive, by reading limit+1 and
// reporting ErrMessageTooLarge when the extra byte does. A body of exactly
// the limit is accepted.
func ReadMessage(dst *bytes.Buffer, r io.Reader, declared int64) error {
	if declared > maxMessageBytes {
		return ErrMessageTooLarge
	}
	if declared > 0 {
		dst.Grow(int(min(declared, maxPresize)) + bytes.MinRead)
	}
	n, err := io.Copy(dst, io.LimitReader(r, maxMessageBytes+1))
	if err != nil {
		return err
	}
	if n > maxMessageBytes {
		return ErrMessageTooLarge
	}
	return nil
}

// OversizeFault is the typed fault oversize requests are rejected with —
// a Client-code fault carrying a BadRequest portal error whose text is
// deterministic in the limit. The wire binding sends it with HTTP 413.
func OversizeFault() *Fault {
	pe := NewPortalError("soap", ErrCodeBadRequest,
		"request exceeds %d-byte message limit", maxMessageBytes)
	return &Fault{Code: FaultClient, String: pe.Message, Detail: []*xmlutil.Element{pe.Element()}}
}

// Transport carries one SOAP round trip: it posts req to endpoint under
// ctx and appends the raw response envelope bytes to resp without parsing
// them, leaving the parse mode to the caller (core.Client decodes them
// with DecodeResponse; RoundTripEnvelope builds a retained tree).
// Cancelling ctx abandons the call. On error resp is restored to its
// pre-call length, so callers may reuse one buffer across attempts.
// Implementations include the HTTP transport below and the in-process
// loopback used by tests and benchmarks to isolate encoding cost from
// network cost.
type Transport interface {
	RoundTripRawCtx(ctx context.Context, endpoint, action string, req *Envelope, resp *bytes.Buffer) error
}

// ContextRawTransport is an alias of Transport. It exists for the
// benchmark harness (portalbench), which compiles against this name.
type ContextRawTransport = Transport

// ContextTransport is a round trip returning a parsed response tree. It
// exists for the benchmark harness (portalbench), whose timing wrapper
// forwards it; HTTPTransport and the rpc server transport implement it
// with RoundTripEnvelope.
type ContextTransport interface {
	RoundTripCtx(ctx context.Context, endpoint, action string, req *Envelope) (*Envelope, error)
}

// RoundTripEnvelope performs one round trip through t and parses the
// response into a tree owned by the caller.
func RoundTripEnvelope(ctx context.Context, t Transport, endpoint, action string, req *Envelope) (*Envelope, error) {
	buf := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(buf)
	if err := t.RoundTripRawCtx(ctx, endpoint, action, req, buf); err != nil {
		return nil, err
	}
	return ParseEnvelopeBytes(buf.Bytes())
}

// defaultClient is shared by every HTTPTransport with no Client set, so
// TCP connections are pooled and reused across calls instead of being
// re-dialled per request.
var defaultClient = &http.Client{Timeout: 30 * time.Second}

// DefaultClient returns the shared HTTP client used when an HTTPTransport
// has none configured.
func DefaultClient() *http.Client { return defaultClient }

// HTTPTransport sends SOAP messages over HTTP POST with a SOAPAction
// header, as the paper's Apache SOAP and Python SOAP services did.
type HTTPTransport struct {
	// Client is the underlying HTTP client; DefaultClient() when nil.
	Client *http.Client
}

// RoundTripCtx returns the parsed response tree. It exists for the
// benchmark harness (portalbench); see ContextTransport.
func (t *HTTPTransport) RoundTripCtx(ctx context.Context, endpoint, action string, req *Envelope) (*Envelope, error) {
	return RoundTripEnvelope(ctx, t, endpoint, action, req)
}

// RoundTripRawCtx implements Transport over HTTP: the request is scoped
// to ctx, so a caller deadline cancels the post mid-flight.
func (t *HTTPTransport) RoundTripRawCtx(ctx context.Context, endpoint, action string, req *Envelope, respBuf *bytes.Buffer) error {
	mark := respBuf.Len()
	hc := t.Client
	if hc == nil {
		hc = defaultClient
	}
	reqBuf := xmlutil.GetBuffer()
	req.AppendTo(reqBuf)
	resp, err := Post(ctx, hc, endpoint, action, reqBuf)
	if err != nil {
		return fmt.Errorf("soap: post %s: %w", endpoint, err)
	}
	defer resp.Body.Close()
	if err := ReadMessage(respBuf, resp.Body, resp.ContentLength); err != nil {
		respBuf.Truncate(mark)
		if errors.Is(err, ErrMessageTooLarge) {
			return fmt.Errorf("soap: response from %s exceeds %d-byte message limit: %w",
				endpoint, maxMessageBytes, ErrMessageTooLarge)
		}
		return fmt.Errorf("soap: read response: %w", err)
	}
	// SOAP 1.1 uses HTTP 500 for faults; the envelope still parses.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
		respBuf.Truncate(mark)
		return fmt.Errorf("soap: endpoint %s returned HTTP %d", endpoint, resp.StatusCode)
	}
	return nil
}

// Post sends the request envelope in env to endpoint as a SOAP 1.1 HTTP
// POST through hc and returns net/http's response, whose body the caller
// must close. env must come from xmlutil.GetBuffer, and Post takes it
// over: net/http reads the envelope straight from env, not from a copy
// (see lentBuffer), and env goes back to the pool once net/http is done
// with it. The caller must not touch env after the call.
func Post(ctx context.Context, hc *http.Client, endpoint, action string, env *bytes.Buffer) (*http.Response, error) {
	l := &lentBuffer{buf: env, refs: 1}
	l.trace = httptrace.ClientTrace{GotConn: l.gotConn, WroteRequest: l.wrote}
	ctx = httptrace.WithClientTrace(ctx, &l.trace)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, bytes.NewReader(env.Bytes()))
	if err != nil {
		xmlutil.PutBuffer(env)
		return nil, err
	}
	req.Header.Set("Content-Type", ContentType)
	req.Header.Set("SOAPAction", `"`+action+`"`)
	resp, err := hc.Do(req)
	l.release()
	return resp, err
}

// lentBuffer lends a pooled request envelope to net/http. Do can return
// while the transport's write loop is still sending the body, and a
// resend reads it again through GetBody, so the buffer cannot go back to
// the pool when Do returns. The body stays a bytes.Reader, which net/http
// sends with its header in one write; a body type of its own would make
// net/http flush the header in a packet of its own and copy the body
// through a buffer of its own. So the request's client trace counts the
// readers instead of the body's Close: every connection obtained for an
// attempt (GotConn) takes a reference, which that attempt's write drops
// when it has finished (WroteRequest), and Post holds one until Do
// returns. The last release recycles the buffer. A request for which the
// trace reports no connection leaves the buffer to the garbage collector:
// it failed before it reached a connection, or went through a transport
// other than net/http's, which may read the body without the trace seeing.
type lentBuffer struct {
	trace httptrace.ClientTrace
	mu    sync.Mutex
	buf   *bytes.Buffer
	refs  int  // Post's, plus one per write in flight
	seen  bool // the trace has reported a connection
}

func (l *lentBuffer) gotConn(httptrace.GotConnInfo) {
	l.mu.Lock()
	l.refs++
	l.seen = true
	l.mu.Unlock()
}

func (l *lentBuffer) wrote(httptrace.WroteRequestInfo) { l.release() }

// release drops one reference, recycling the buffer on the last.
func (l *lentBuffer) release() {
	l.mu.Lock()
	l.refs--
	var done *bytes.Buffer
	if l.refs == 0 && l.seen {
		done, l.buf = l.buf, nil
	}
	l.mu.Unlock()
	if done != nil {
		xmlutil.PutBuffer(done)
	}
}

// ServeFunc answers one serialised request envelope: it appends the
// response envelope to out and returns nil, or appends a fault envelope
// and returns the error the fault was made from. ctx is the request's
// lifetime (the HTTP request context on the wire path, the caller's
// context in-process); nothing else of an HTTP request reaches it, so
// both bindings below serve a request alike. The function must not
// retain body past the call. core.Provider.Serve is the implementation
// both bindings are wired with.
type ServeFunc func(ctx context.Context, body []byte, out *bytes.Buffer) error

// Handler adapts a ServeFunc into an http.Handler implementing the SOAP
// 1.1 HTTP binding: POST only, bodies bounded by the message limit, and
// faults sent with status 500 plus any Retry-After advice they carry.
// Every envelope goes out with a Content-Length, so clients can size their
// read buffer once.
func Handler(serve ServeFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "soap endpoint: POST required", http.StatusMethodNotAllowed)
			return
		}
		body := xmlutil.GetBuffer()
		defer xmlutil.PutBuffer(body)
		if err := ReadMessage(body, r.Body, r.ContentLength); err != nil {
			if errors.Is(err, ErrMessageTooLarge) {
				WriteFault(w, OversizeFault(), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "soap endpoint: read error", http.StatusBadRequest)
			return
		}
		out := xmlutil.GetBuffer()
		defer xmlutil.PutBuffer(out)
		status := http.StatusOK
		if err := serve(r.Context(), body.Bytes(), out); err != nil {
			setRetryAfter(w, err)
			status = http.StatusInternalServerError
		}
		writeEnvelope(w, status, out.Bytes())
	})
}

// writeEnvelope sends one serialised envelope with its Content-Type and
// Content-Length.
func writeEnvelope(w http.ResponseWriter, status int, env []byte) {
	w.Header().Set("Content-Type", ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(env)))
	w.WriteHeader(status)
	_, _ = w.Write(env)
}

// setRetryAfter relays a fault's retry advice (load shedding, drain) as
// the standard HTTP header.
func setRetryAfter(w http.ResponseWriter, err error) {
	if f := AsFault(err); f != nil && f.RetryAfter > 0 {
		secs := int((f.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
}

// WriteFault serialises f as a fault envelope onto w with the given HTTP
// status (0 selects the SOAP 1.1 default, 500), relaying any Retry-After
// advice the fault carries. Endpoints that reject requests outside the
// normal dispatch path — oversize bodies, the gateway with no healthy
// backend — use it to stay on the typed-fault contract instead of falling
// back to plain-text http.Error pages.
func WriteFault(w http.ResponseWriter, f *Fault, status int) {
	if status == 0 {
		status = http.StatusInternalServerError
	}
	setRetryAfter(w, f)
	out := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(out)
	(&Response{Fault: f}).WireEnvelope().AppendTo(out)
	writeEnvelope(w, status, out.Bytes())
}

// FaultEnvelope converts any error into a fault response envelope with a
// streamed (tree-free) body. Portal errors are relayed in the detail entry
// so clients can decode them; any other error that is not a *Fault gets
// defaultCode.
func FaultEnvelope(err error, defaultCode string) *Envelope {
	f := AsFault(err)
	if f == nil {
		if pe := AsPortalError(err); pe != nil {
			f = pe.Fault()
		} else {
			f = &Fault{Code: defaultCode, String: err.Error()}
		}
	}
	return (&Response{Fault: f}).WireEnvelope()
}

// LoopbackTransport answers requests in-process through a ServeFunc,
// serialising the request so the bytes served are the bytes HTTP would
// carry. Benchmarks use it to separate XML processing cost from TCP cost.
type LoopbackTransport struct {
	// Serve answers every request regardless of endpoint.
	Serve ServeFunc
}

// RoundTripRawCtx implements Transport in-process, handing ctx straight
// to Serve (there is no wire to cancel). A context already done fails the
// call before dispatch, as the HTTP transport does. A fault is a response,
// not a transport failure: its envelope lands in respBuf and the call
// returns nil, exactly as over HTTP.
func (t *LoopbackTransport) RoundTripRawCtx(ctx context.Context, endpoint, action string, req *Envelope, respBuf *bytes.Buffer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	buf := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(buf)
	req.AppendTo(buf)
	_ = t.Serve(ctx, buf.Bytes(), respBuf)
	return nil
}

// ClientPool hands out one pooled HTTP client per backend, so a caller
// fanning out across many providers keeps a separate connection pool per
// site: one slow or dead backend cannot monopolise the idle-connection
// budget the others depend on. The federated gateway keys the pool by
// backend base URL.
type ClientPool struct {
	// Timeout is the whole-call timeout applied to every pooled client
	// (0 leaves deadlines to request contexts).
	Timeout time.Duration

	mu      sync.Mutex
	clients map[string]*http.Client
}

// For returns the pooled client for one backend, creating it on first use.
func (p *ClientPool) For(backend string) *http.Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.clients[backend]; ok {
		return c
	}
	if p.clients == nil {
		p.clients = make(map[string]*http.Client)
	}
	c := &http.Client{
		Timeout: p.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	p.clients[backend] = c
	return c
}

// CloseIdle drops every pooled client's idle connections.
func (p *ClientPool) CloseIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
}
