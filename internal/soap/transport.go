package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/xmlutil"
)

// ContentType is the media type of SOAP 1.1 messages.
const ContentType = "text/xml; charset=utf-8"

// maxMessageBytes bounds how much of a request or response body is read.
// A variable only so boundary tests can exercise the limit without
// allocating 64 MiB bodies; production code treats it as a constant.
var maxMessageBytes int64 = 64 << 20

// MaxMessageBytes reports the message size limit both transport directions
// enforce.
func MaxMessageBytes() int64 { return maxMessageBytes }

// ErrMessageTooLarge marks a message rejected for exceeding the transport
// message limit. Oversize bodies are detected, never silently clipped: a
// truncated envelope would otherwise surface as a misleading XML parse
// error deep in the decoder.
var ErrMessageTooLarge = errors.New("soap: message too large")

// ReadMessage appends r's bytes to dst, enforcing the message limit by
// reading limit+1 bytes and reporting ErrMessageTooLarge when the extra
// byte arrives. A body of exactly the limit is accepted.
func ReadMessage(dst *bytes.Buffer, r io.Reader) error {
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
// them, leaving the parse mode to the caller (core.Client decodes into a
// pooled arena; RoundTripEnvelope builds a retained tree). Cancelling ctx
// abandons the call. On error resp is restored to its pre-call length, so
// callers may reuse one buffer across attempts. Implementations include
// the HTTP transport below and the in-process loopback used by tests and
// benchmarks to isolate encoding cost from network cost.
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
	// Detach the bytes before handing them to net/http: Do can return
	// while the transport's write loop is still streaming the body, so the
	// pooled buffer must not be recycled under an aliasing reader.
	body := bytes.Clone(reqBuf.Bytes())
	xmlutil.PutBuffer(reqBuf)
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("soap: build request: %w", err)
	}
	httpReq.Header.Set("Content-Type", ContentType)
	httpReq.Header.Set("SOAPAction", `"`+action+`"`)
	resp, err := hc.Do(httpReq)
	if err != nil {
		return fmt.Errorf("soap: post %s: %w", endpoint, err)
	}
	defer resp.Body.Close()
	if err := ReadMessage(respBuf, resp.Body); err != nil {
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

// EnvelopeHandler processes one request envelope and produces a response
// envelope. ctx is the request's lifetime (the HTTP request context on the
// wire path, the caller's context in-process); handlers should stop work
// when it is cancelled. Returning an error that is (or wraps) a *Fault
// sends that fault; any other error becomes a generic Server fault.
type EnvelopeHandler func(ctx context.Context, req *Envelope, httpReq *http.Request) (*Envelope, error)

// RawEnvelopeHandler processes a request straight from its serialised
// bytes — the streaming decode fast path (core.Provider.DispatchRaw).
// handled=false means the request is outside the streaming subset and the
// caller must re-dispatch through the tree-parsing EnvelopeHandler; once
// handled is true the request has been executed (side effects included)
// and the envelope/error pair is final, with errors converted to fault
// envelopes exactly as for an EnvelopeHandler. The handler must not
// retain body past the call.
type RawEnvelopeHandler func(ctx context.Context, body []byte, httpReq *http.Request) (resp *Envelope, handled bool, err error)

// Handler adapts an EnvelopeHandler into an http.Handler implementing the
// SOAP 1.1 HTTP binding (faults are sent with status 500).
func Handler(h EnvelopeHandler) http.Handler {
	return HandlerWithRaw(h, nil)
}

// HandlerWithRaw is Handler with an optional streaming fast path: when raw
// is non-nil every request body is offered to it first, and only requests
// it does not handle are parsed into the pooled element tree for h.
func HandlerWithRaw(h EnvelopeHandler, raw RawEnvelopeHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "soap endpoint: POST required", http.StatusMethodNotAllowed)
			return
		}
		if r.ContentLength > maxMessageBytes {
			WriteFault(w, OversizeFault(), http.StatusRequestEntityTooLarge)
			return
		}
		body := xmlutil.GetBuffer()
		defer xmlutil.PutBuffer(body)
		if err := ReadMessage(body, r.Body); err != nil {
			if errors.Is(err, ErrMessageTooLarge) {
				WriteFault(w, OversizeFault(), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "soap endpoint: read error", http.StatusBadRequest)
			return
		}
		if raw != nil {
			if respEnv, handled, herr := raw(r.Context(), body.Bytes(), r); handled {
				if herr != nil {
					setRetryAfter(w, herr)
					respEnv = faultEnvelope(herr, FaultServer)
				}
				writeEnvelope(w, respEnv)
				return
			}
		}
		// The request envelope lives in a pooled element arena: it is only
		// needed until the response has been rendered, after which the whole
		// tree is recycled. Handlers must not retain request elements.
		env, doc, err := ParseEnvelopeBytesPooled(body.Bytes())
		var respEnv *Envelope
		var herr error
		if err != nil {
			respEnv = faultEnvelope(err, FaultClient)
		} else {
			var out *Envelope
			out, herr = h(r.Context(), env, r)
			if herr != nil {
				setRetryAfter(w, herr)
				respEnv = faultEnvelope(herr, FaultServer)
			} else {
				respEnv = out
			}
		}
		status := http.StatusOK
		if isFaultEnvelope(respEnv) {
			status = http.StatusInternalServerError
		}
		out := xmlutil.GetBuffer()
		defer xmlutil.PutBuffer(out)
		respEnv.AppendTo(out)
		// Response rendered: the request tree is no longer needed — unless
		// the handler was abandoned on deadline (Held), in which case a
		// detached goroutine may still read it and the arena must leak to
		// the garbage collector instead of being recycled underneath it.
		if doc != nil && !Held(herr) {
			doc.Release()
		}
		w.Header().Set("Content-Type", ContentType)
		w.WriteHeader(status)
		_, _ = w.Write(out.Bytes())
	})
}

// setRetryAfter relays a fault's retry advice (load shedding, drain) as
// the standard HTTP header.
func setRetryAfter(w http.ResponseWriter, err error) {
	if f := AsFault(err); f != nil && f.RetryAfter > 0 {
		secs := int((f.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
}

// writeEnvelope serialises one response envelope with the SOAP 1.1 HTTP
// status convention.
func writeEnvelope(w http.ResponseWriter, respEnv *Envelope) {
	status := http.StatusOK
	if isFaultEnvelope(respEnv) {
		status = http.StatusInternalServerError
	}
	out := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(out)
	respEnv.AppendTo(out)
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	_, _ = w.Write(out.Bytes())
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
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	_, _ = w.Write(out.Bytes())
}

// faultEnvelope converts any error into a fault response envelope with a
// streamed (tree-free) body. Portal errors are relayed in the detail entry
// so clients can decode them.
func faultEnvelope(err error, defaultCode string) *Envelope {
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

func isFaultEnvelope(env *Envelope) bool {
	if env == nil {
		return false
	}
	if env.streamFault {
		return true
	}
	return len(env.Body) > 0 && env.Body[0].Name == "Fault" && env.Body[0].Space == EnvelopeNS
}

// LoopbackTransport invokes an EnvelopeHandler in-process, serialising and
// reparsing the envelopes so the encoding path is identical to the wire
// path. Benchmarks use it to separate XML processing cost from TCP cost.
type LoopbackTransport struct {
	// Handler receives every request regardless of endpoint.
	Handler EnvelopeHandler
	// Raw, when non-nil, is offered the serialised request bytes before
	// Handler, mirroring the HTTP handler's streaming fast path; requests
	// it does not handle fall through to the tree-parsing Handler.
	Raw RawEnvelopeHandler
}

// RoundTripRawCtx implements Transport in-process, handing ctx straight
// to the handler chain (there is no wire to cancel). A context already
// done fails the call before dispatch, as the HTTP transport does.
func (t *LoopbackTransport) RoundTripRawCtx(ctx context.Context, endpoint, action string, req *Envelope, respBuf *bytes.Buffer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	buf := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(buf)
	// Serialise and reparse to keep byte-level fidelity with HTTP. The
	// request-side tree is arena-pooled exactly as in the HTTP handler.
	req.AppendTo(buf)
	// Handlers receive a nil *http.Request in-process: Context.HTTPRequest
	// is documented as HTTP-only, and synthesising one per call (URL parse,
	// header map) would dominate the loopback overhead the benchmarks are
	// built to isolate.
	if t.Raw != nil {
		if out, handled, herr := t.Raw(ctx, buf.Bytes(), nil); handled {
			if herr != nil {
				out = faultEnvelope(herr, FaultServer)
			}
			out.AppendTo(respBuf)
			return nil
		}
	}
	wire, doc, err := ParseEnvelopeBytesPooled(buf.Bytes())
	if err != nil {
		return err
	}
	out, herr := t.Handler(ctx, wire, nil)
	if herr != nil {
		out = faultEnvelope(herr, FaultServer)
	}
	out.AppendTo(respBuf)
	// As on the HTTP path: an abandoned handler (Held error) may still be
	// reading the pooled request tree, so it must not be recycled.
	if !Held(herr) {
		doc.Release()
	}
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

// Invoke performs a full RPC round trip under ctx: encode the call, send
// it through the transport, decode the response. A fault response is
// returned as the error (of type *Fault).
func Invoke(ctx context.Context, t Transport, endpoint string, call *Call) (*Response, error) {
	respEnv, err := RoundTripEnvelope(ctx, t, endpoint, call.ServiceNS+"#"+call.Method, call.WireEnvelope())
	if err != nil {
		return nil, err
	}
	return ParseResponse(respEnv)
}
