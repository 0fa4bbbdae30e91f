package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
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
	if err := ReadMessage(&buf, strings.NewReader(strings.Repeat("a", 1024)), -1); err != nil {
		t.Fatalf("exact-limit read: %v", err)
	}
	if buf.Len() != 1024 {
		t.Fatalf("exact-limit read kept %d bytes, want 1024", buf.Len())
	}
	buf.Reset()
	if err := ReadMessage(&buf, strings.NewReader(strings.Repeat("a", 1025)), -1); !errors.Is(err, ErrMessageTooLarge) {
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
	h := Handler(func(_ context.Context, _ []byte, out *bytes.Buffer) error {
		(&Response{ServiceNS: "urn:x", Method: "ping"}).WireEnvelope().AppendTo(out)
		return nil
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

// countingReader counts Read calls, to prove a rejection read nothing.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadMessageDeclaredLength pins how the declared length is used: it
// rejects an oversize message before any read, sizes the buffer once when
// it is honest, and is only a hint otherwise — the bytes that arrive
// decide both the content and the limit.
func TestReadMessageDeclaredLength(t *testing.T) {
	withMessageLimit(t, 4096)
	for _, c := range []struct {
		name     string
		body     int
		declared int64
		err      error
	}{
		{"declared over the limit", 10, 4097, ErrMessageTooLarge},
		{"declared shorter than the body", 100, 10, nil},
		{"declared longer than the body", 100, 500, nil},
		{"exactly the limit", 4096, 4096, nil},
		{"unknown length at the limit", 4096, -1, nil},
		{"unknown length over the limit", 4097, -1, ErrMessageTooLarge},
		{"body over an honest-looking declaration", 4097, 4096, ErrMessageTooLarge},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := strings.Repeat("b", c.body)
			r := &countingReader{r: strings.NewReader(body)}
			var buf bytes.Buffer
			err := ReadMessage(&buf, r, c.declared)
			if !errors.Is(err, c.err) {
				t.Fatalf("err = %v, want %v", err, c.err)
			}
			if c.err != nil {
				if c.declared > maxMessageBytes && (r.reads != 0 || buf.Len() != 0) {
					t.Fatalf("oversize declaration read %d times into %d bytes", r.reads, buf.Len())
				}
				return
			}
			if buf.String() != body {
				t.Fatalf("read %d bytes, want the %d-byte body", buf.Len(), c.body)
			}
			// An honest declaration sizes the buffer once: reading to EOF
			// must not double it.
			if c.declared == int64(c.body) && buf.Cap() >= 2*c.body {
				t.Fatalf("buffer grew to %d bytes for a declared %d-byte body", buf.Cap(), c.body)
			}
		})
	}
}

// TestReadMessageFalseDeclaration: a declaration is not trusted with
// memory. A peer announcing the full 64 MiB limit and sending ten bytes
// must not make the reader reserve anything close to 64 MiB.
func TestReadMessageFalseDeclaration(t *testing.T) {
	if maxMessageBytes != 64<<20 {
		t.Fatalf("message limit is %d, want the production 64 MiB", maxMessageBytes)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var buf bytes.Buffer
	if err := ReadMessage(&buf, strings.NewReader("0123456789"), maxMessageBytes); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if buf.String() != "0123456789" {
		t.Fatalf("read %q", buf.String())
	}
	if buf.Cap() > 2<<20 {
		t.Errorf("a 10-byte body declared as %d bytes left a %d-byte buffer", maxMessageBytes, buf.Cap())
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 8<<20 {
		t.Errorf("a 10-byte body declared as %d bytes allocated %d bytes", maxMessageBytes, n)
	}
}

// TestHandlerContentLength: every envelope the SOAP binding sends —
// response, fault and oversize rejection — declares its exact length, so
// a client can size its read buffer instead of receiving chunks.
func TestHandlerContentLength(t *testing.T) {
	withMessageLimit(t, 256<<10)
	big := strings.Repeat("<&", 16<<10) // far past net/http's own buffering
	h := Handler(func(_ context.Context, body []byte, out *bytes.Buffer) error {
		if bytes.Contains(body, []byte("fail")) {
			f := &Fault{Code: FaultServer, String: big}
			(&Response{Fault: f}).WireEnvelope().AppendTo(out)
			return f
		}
		(&Response{ServiceNS: "urn:x", Method: "ping", Returns: []Value{Str("r", big)}}).WireEnvelope().AppendTo(out)
		return nil
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, c := range []struct {
		name   string
		body   string
		status int
	}{
		{"response", "ok", http.StatusOK},
		{"fault", "fail", http.StatusInternalServerError},
	} {
		resp, err := http.Post(ts.URL, ContentType, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		_, err = got.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status {
			t.Fatalf("%s: HTTP %d, want %d", c.name, resp.StatusCode, c.status)
		}
		if resp.ContentLength != int64(got.Len()) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v for a %d-byte body",
				c.name, resp.ContentLength, resp.TransferEncoding, got.Len())
		}
	}

	// The oversize rejection is answered without reading the body; a
	// recorder sees its headers without waiting out net/http's close of a
	// connection whose request body was left unread.
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(strings.Repeat("x", 256<<10+1)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize: HTTP %d", rec.Code)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("oversize: Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}
