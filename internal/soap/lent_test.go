package soap

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/xmlutil"
)

// resetConn fails every write once gone is set, writing nothing, as a
// keep-alive connection does whose server closed it while it sat idle.
type resetConn struct {
	net.Conn
	gone *atomic.Bool
}

func (c resetConn) Write(p []byte) (int, error) {
	if c.gone.Load() {
		return 0, syscall.ECONNRESET
	}
	return c.Conn.Write(p)
}

// TestLentBodyResentThroughGetBody: a POST on a reused connection that
// fails before any byte is written is resent by net/http on a new
// connection, from a fresh reader that GetBody returns, with the same
// bytes.
func TestLentBodyResentThroughGetBody(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(b))
		mu.Unlock()
		w.Write([]byte("<ok/>"))
	}))
	defer ts.Close()
	var gone atomic.Bool
	var dials atomic.Int32
	var d net.Dialer
	tr := &HTTPTransport{Client: &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil || dials.Add(1) > 1 {
				return c, err
			}
			return resetConn{c, &gone}, nil
		},
	}}}
	defer tr.Client.CloseIdleConnections()

	ctx := context.Background()
	var resp bytes.Buffer
	if err := tr.RoundTripRawCtx(ctx, ts.URL, "urn:x#put", RawEnvelope([]byte("<first/>")), &resp); err != nil {
		t.Fatal(err)
	}
	gone.Store(true)
	if err := tr.RoundTripRawCtx(ctx, ts.URL, "urn:x#put", RawEnvelope([]byte("<second/>")), &resp); err != nil {
		t.Fatalf("POST on a reset keep-alive connection was not resent: %v", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2: the second POST should have reused the first connection, then redialled", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 || bodies[0] != "<first/>" || bodies[1] != "<second/>" {
		t.Fatalf("server read %q, want [<first/> <second/>]", bodies)
	}
}

// countConn counts the writes made on a connection.
type countConn struct {
	net.Conn
	writes *atomic.Int32
}

func (c countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestLentBodyOneWrite: a small request goes out as one write, header and
// body together. net/http does this only for a body it knows to be in
// memory; any other body type makes it flush the header on its own first.
func TestLentBodyOneWrite(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("<ok/>"))
	}))
	defer ts.Close()
	var writes atomic.Int32
	var d net.Dialer
	tr := &HTTPTransport{Client: &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countConn{c, &writes}, nil
		},
	}}}
	defer tr.Client.CloseIdleConnections()
	var resp bytes.Buffer
	if err := tr.RoundTripRawCtx(context.Background(), ts.URL, "urn:x#put", RawEnvelope([]byte("<small/>")), &resp); err != nil {
		t.Fatal(err)
	}
	if n := writes.Load(); n != 1 {
		t.Fatalf("request took %d writes, want 1", n)
	}
}

// TestLentBodyRecycledAfterLastWrite: the buffer goes back to the pool
// only when Post and every write that reached a connection have let go,
// here a failed write, then a resend still in flight when Do returns.
// When the trace reports no connection, nothing says when the transport
// stops reading the body, so the buffer is left to the garbage collector.
func TestLentBodyRecycledAfterLastWrite(t *testing.T) {
	l := &lentBuffer{buf: xmlutil.GetBuffer(), refs: 1}
	l.gotConn(httptrace.GotConnInfo{Reused: true})
	l.wrote(httptrace.WroteRequestInfo{Err: syscall.ECONNRESET})
	l.gotConn(httptrace.GotConnInfo{})
	l.release()
	if l.buf == nil {
		t.Fatal("buffer recycled while a write was in flight")
	}
	l.wrote(httptrace.WroteRequestInfo{})
	if l.buf != nil {
		t.Fatal("buffer not recycled after the last write finished")
	}

	l = &lentBuffer{buf: xmlutil.GetBuffer(), refs: 1}
	l.release()
	if l.buf == nil {
		t.Fatal("buffer recycled although no connection was reported")
	}
}
