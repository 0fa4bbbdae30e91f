package rpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/xmlutil"
)

// serveShortBudget serves srv on a fresh loopback listener through
// NewHTTPServer, with the header timeout (and so every body's slack)
// shortened to d, and returns the listener's address.
func serveShortBudget(t *testing.T, srv *Server, d time.Duration) string {
	t.Helper()
	old := readHeaderTimeout
	readHeaderTimeout = d
	t.Cleanup(func() { readHeaderTimeout = old })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer("", srv.Handler())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want %v", err, http.ErrServerClosed)
		}
	})
	return ln.Addr().String()
}

// TestStalledBodyIsCutOff sends headers declaring a 1000-byte body, then
// 10 bytes, then stalls. The server must close the connection within the
// body's budget instead of holding it, and the buffer presized for the
// declared body, while it waits for bytes that never come.
func TestStalledBodyIsCutOff(t *testing.T) {
	srv := NewServer("stall", "http://127.0.0.1")
	srv.Provider("").MustRegister(resilienceDef(nil).MustBuild())
	addr := serveShortBudget(t, srv, 200*time.Millisecond)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	fmt.Fprint(conn, "POST /ResilienceProbe HTTP/1.1\r\nHost: stall\r\n"+
		"Content-Type: text/xml; charset=utf-8\r\nContent-Length: 1000\r\n\r\n0123456789")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Whatever the server answers, it must then close: io.Copy ends at EOF
	// (or a reset) and only runs into the deadline if the connection stays
	// open.
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled body", time.Since(start))
	}
}

// TestLongHandlerKeepsItsContext runs a handler for longer than a body's
// budget, once after reading a small body and once for a request without
// one. Neither may lose its request context or its answer to the read
// deadline.
func TestLongHandlerKeepsItsContext(t *testing.T) {
	srv := NewServer("slow", "http://127.0.0.1")
	ctxErr := make(chan error, 1)
	srv.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		time.Sleep(500 * time.Millisecond)
		ctxErr <- r.Context().Err()
		io.WriteString(w, "done")
	})
	addr := serveShortBudget(t, srv, 100*time.Millisecond)

	for _, method := range []string{http.MethodPost, http.MethodGet} {
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader("small body")
		}
		req, err := http.NewRequest(method, "http://"+addr+"/slow", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		answer, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(answer) != "done" {
			t.Fatalf("%s: answer %d %q, %v", method, resp.StatusCode, answer, err)
		}
		if err := <-ctxErr; err != nil {
			t.Errorf("%s: request context ended while the handler ran: %v", method, err)
		}
	}
}

// TestBodyBudgetFollowsDeclaredLength pins which uploads the body
// deadline admits: every length arriving at least as fast as
// minTransferRate, such as a 10 MiB SRB put over a 1 Mbit/s uplink or
// over a 33.6 kbit/s V.90 modem upstream.
func TestBodyBudgetFollowsDeclaredLength(t *testing.T) {
	if got := bodyBudget(0); got != readHeaderTimeout {
		t.Errorf("empty body budget %v, want the %v slack", got, readHeaderTimeout)
	}
	const put = 10 << 20
	for _, bitsPerSecond := range []int64{1_000_000, 33_600} {
		need := time.Duration(put*8) * time.Second / time.Duration(bitsPerSecond)
		if got := bodyBudget(put); got < need {
			t.Errorf("10 MiB at %d bit/s needs %v, budget %v", bitsPerSecond, need, got)
		}
	}
	if got := bodyBudget(1000); got >= bodyBudget(put) {
		t.Errorf("budget does not grow with length: %v for 1000 B, %v for 10 MiB", got, bodyBudget(put))
	}
	if got, want := bodyBudget(-1), bodyBudget(xmlutil.MessageLimit); got != want {
		t.Errorf("chunked body budget %v, want the message-limit budget %v", got, want)
	}
}
