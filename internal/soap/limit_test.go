package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// withMessageLimit shrinks the transport message limit for one test so the
// boundary cases don't need to allocate 64 MiB bodies. Tests using it must
// not run in parallel.
func withMessageLimit(t *testing.T, limit int64) {
	t.Helper()
	old := maxMessageBytes
	maxMessageBytes = limit
	t.Cleanup(func() { maxMessageBytes = old })
}

func TestReadMessageBoundary(t *testing.T) {
	withMessageLimit(t, 1024)
	var buf bytes.Buffer
	if err := ReadMessage(&buf, strings.NewReader(strings.Repeat("a", 1024))); err != nil {
		t.Fatalf("exact-limit read: %v", err)
	}
	if buf.Len() != 1024 {
		t.Fatalf("exact-limit read kept %d bytes, want 1024", buf.Len())
	}
	buf.Reset()
	if err := ReadMessage(&buf, strings.NewReader(strings.Repeat("a", 1025))); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("limit+1 read: got %v, want ErrMessageTooLarge", err)
	}
}

// TestOversizeResponseClientPath pins the client-side boundary: a response
// of exactly the limit is delivered whole, one byte more is rejected with
// the deterministic oversize error — not silently truncated into a body
// that would later fail to parse.
func TestOversizeResponseClientPath(t *testing.T) {
	withMessageLimit(t, 4096)
	var size int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_, _ = w.Write(bytes.Repeat([]byte{'a'}, int(size)))
	}))
	defer ts.Close()

	tr := &HTTPTransport{}
	call := &Call{ServiceNS: "urn:x", Method: "ping"}
	var resp bytes.Buffer
	size = 4096
	if err := tr.RoundTripRawCtx(context.Background(), ts.URL, "urn:x#ping", call.WireEnvelope(), &resp); err != nil {
		t.Fatalf("exact-limit response: %v", err)
	}
	if resp.Len() != 4096 {
		t.Fatalf("exact-limit response kept %d bytes, want 4096", resp.Len())
	}

	resp.Reset()
	resp.WriteString("prior")
	size = 4097
	err := tr.RoundTripRawCtx(context.Background(), ts.URL, "urn:x#ping", call.WireEnvelope(), &resp)
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("limit+1 response: got %v, want ErrMessageTooLarge", err)
	}
	want := fmt.Sprintf("soap: response from %s exceeds 4096-byte message limit: %s", ts.URL, ErrMessageTooLarge)
	if err.Error() != want {
		t.Fatalf("oversize error text:\n got %q\nwant %q", err.Error(), want)
	}
	if resp.String() != "prior" {
		t.Fatalf("buffer not restored on oversize failure: %q", resp.String())
	}
}

// TestOversizeRequestServerPath pins the server-side boundary: a request
// of exactly the limit dispatches normally, one byte more is answered with
// HTTP 413 carrying a typed BadRequest fault — on both the declared
// Content-Length fast path and the chunked read path.
func TestOversizeRequestServerPath(t *testing.T) {
	withMessageLimit(t, 4096)
	h := Handler(func(ctx context.Context, req *Envelope, r *http.Request) (*Envelope, error) {
		return (&Response{ServiceNS: "urn:x", Method: "ping"}).WireEnvelope(), nil
	})

	// Build a valid request envelope padded to exactly the limit.
	build := func(pad int) []byte {
		call := &Call{ServiceNS: "urn:x", Method: "ping",
			Params: []Value{Str("pad", strings.Repeat("a", pad))}}
		var buf bytes.Buffer
		call.WireEnvelope().AppendTo(&buf)
		return buf.Bytes()
	}
	base := len(build(1)) - 1 // a non-empty pad: empty params render self-closing
	exact := build(int(maxMessageBytes) - base)
	if int64(len(exact)) != maxMessageBytes {
		t.Fatalf("padding math: built %d bytes, want %d", len(exact), maxMessageBytes)
	}

	post := func(body []byte, chunked bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/svc", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentType)
		if chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := post(exact, false); rec.Code != http.StatusOK {
		t.Fatalf("exact-limit request: HTTP %d: %s", rec.Code, rec.Body)
	}

	over := append(append([]byte(nil), exact...), ' ')
	for _, chunked := range []bool{false, true} {
		rec := post(over, chunked)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("limit+1 request (chunked=%v): HTTP %d: %s", chunked, rec.Code, rec.Body)
		}
		env, err := ParseEnvelopeBytes(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("oversize fault response does not parse (chunked=%v): %v", chunked, err)
		}
		_, ferr := ParseResponse(env)
		f := AsFault(ferr)
		if f == nil {
			t.Fatalf("oversize response is not a fault (chunked=%v): %v", chunked, ferr)
		}
		if f.Code != FaultClient {
			t.Fatalf("oversize fault code = %q, want %q", f.Code, FaultClient)
		}
		pe := f.PortalError()
		if pe == nil || pe.Code != ErrCodeBadRequest {
			t.Fatalf("oversize fault portal error = %+v, want code %s", pe, ErrCodeBadRequest)
		}
		if want := "request exceeds 4096-byte message limit"; pe.Message != want {
			t.Fatalf("oversize fault message = %q, want %q", pe.Message, want)
		}
	}
}
