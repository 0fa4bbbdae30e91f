package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net/http"

	"repro/internal/soap"
)

// ForwardResult describes one relayed backend response.
type ForwardResult struct {
	// Status is the backend's HTTP status. Under the SOAP 1.1 binding it
	// is 200 for results and 500 for faults; 413 marks oversize
	// rejections. The gateway relays it unchanged.
	Status int
	// RetryAfter is the backend's Retry-After header value, relayed
	// verbatim ("" when absent).
	RetryAfter string
}

// Forwarder posts one serialised request envelope to a backend service
// endpoint (backend base URL + service path), appending the raw response
// envelope bytes to resp. Transport-level failures — the response bytes
// cannot be trusted, and the request may or may not have executed —
// return an error with resp restored; SOAP faults are NOT errors, they
// arrive as response bytes with Status 500 so the gateway can relay them
// unchanged.
type Forwarder interface {
	Forward(ctx context.Context, backend, path, action string, body []byte, resp *bytes.Buffer) (ForwardResult, error)
}

// HTTPForwarder relays envelopes over HTTP POST, preserving response
// bytes, status, and Retry-After exactly. Each backend gets its own
// pooled client from Pool, so one slow site cannot starve the others'
// connection pools.
type HTTPForwarder struct {
	// Pool hands out the per-backend clients; soap.DefaultClient() is
	// used when nil.
	Pool *soap.ClientPool
}

// Forward implements Forwarder over HTTP.
func (f *HTTPForwarder) Forward(ctx context.Context, backend, path, action string, body []byte, resp *bytes.Buffer) (ForwardResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, backend+path, bytes.NewReader(body))
	if err != nil {
		return ForwardResult{}, fmt.Errorf("gateway: build request: %w", err)
	}
	req.Header.Set("Content-Type", soap.ContentType)
	req.Header.Set("SOAPAction", `"`+action+`"`)
	hc := soap.DefaultClient()
	if f.Pool != nil {
		hc = f.Pool.For(backend)
	}
	res, err := hc.Do(req)
	if err != nil {
		return ForwardResult{}, fmt.Errorf("gateway: post %s%s: %w", backend, path, err)
	}
	defer res.Body.Close()
	mark := resp.Len()
	if err := soap.ReadMessage(resp, res.Body); err != nil {
		resp.Truncate(mark)
		return ForwardResult{}, fmt.Errorf("gateway: read response from %s%s: %w", backend, path, err)
	}
	return ForwardResult{Status: res.StatusCode, RetryAfter: res.Header.Get("Retry-After")}, nil
}

// TransportForwarder adapts any soap.Transport into a Forwarder: the
// request bytes ride through the transport verbatim (soap.RawEnvelope)
// and the HTTP status is reconstructed from the response body per the
// SOAP 1.1 convention (fault body ⇒ 500). Tests and benchmarks use it to
// put a ChaosTransport or an in-process server transport behind the
// gateway; Retry-After is HTTP transport metadata and is not
// reconstructed on this path.
type TransportForwarder struct {
	// RT carries the forwarded envelopes.
	RT soap.Transport
}

// Forward implements Forwarder over the wrapped transport.
func (f *TransportForwarder) Forward(ctx context.Context, backend, path, action string, body []byte, resp *bytes.Buffer) (ForwardResult, error) {
	mark := resp.Len()
	if err := f.RT.RoundTripRawCtx(ctx, backend+path, action, soap.RawEnvelope(body), resp); err != nil {
		resp.Truncate(mark)
		return ForwardResult{}, err
	}
	status := http.StatusOK
	if soap.IsFaultBytes(resp.Bytes()[mark:]) {
		status = http.StatusInternalServerError
	}
	return ForwardResult{Status: status}, nil
}
