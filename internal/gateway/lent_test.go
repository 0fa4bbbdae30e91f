package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/soap"
)

// lateBodySize is larger than loopback socket buffers hold, so net/http is
// still sending such a body when a server that answers first has replied.
const lateBodySize = 8 << 20

const lateOK = "HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: 5\r\n\r\n<ok/>"

// lateServer is a loopback HTTP/1.1 server that answers every request in
// full before it reads the request's body. The first request's body is
// read only once read is closed, and then arrives on got; every other
// body is read and dropped as soon as its answer is sent.
func lateServer(t *testing.T) (url string, read chan struct{}, got chan []byte) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	read, got = make(chan struct{}), make(chan []byte, 1)
	var first atomic.Bool
	first.Store(true)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.WriteString(c, lateOK)
					if first.Swap(false) {
						<-read
						body, _ := io.ReadAll(req.Body)
						got <- body
					} else {
						io.Copy(io.Discard, req.Body)
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String(), read, got
}

// TestLentBodyOutlivesTheCall: a request body stays intact while
// net/http sends it after the call has returned. Each post sends an
// 8 MiB body to a server that answers before reading it. The caller then
// overwrites its copy, and a second call of the same size takes buffers
// from the pool; only then does the server read the first body. net/http
// cuts a connection 50 ms after its response was read while the request
// is still being written, so the server reads a prefix of the body, and
// every byte of it must be the byte posted. Under -race, a write to bytes
// net/http may still read is also reported as a data race.
func TestLentBodyOutlivesTheCall(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		post func(url string, body []byte) error
	}{
		{"HTTPTransport", func(url string, body []byte) error {
			var resp bytes.Buffer
			return (&soap.HTTPTransport{}).RoundTripRawCtx(ctx, url, "urn:x#put", soap.RawEnvelope(body), &resp)
		}},
		{"HTTPForwarder", func(url string, body []byte) error {
			var resp bytes.Buffer
			_, err := (&HTTPForwarder{}).Forward(ctx, url, "/x", "urn:x#put", body, &resp)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			url, read, got := lateServer(t)
			want := bytes.Repeat([]byte{'a'}, lateBodySize)
			body := bytes.Clone(want)
			err := c.post(url, body)
			copy(body, bytes.Repeat([]byte{'b'}, lateBodySize))
			err = errors.Join(err, c.post(url, body))
			close(read)
			if err != nil {
				t.Fatal(err)
			}
			arrived := <-got
			if len(arrived) == 0 || len(arrived) > len(want) || !bytes.Equal(arrived, want[:len(arrived)]) {
				t.Fatalf("server read %d bytes that are not a prefix of the %d-byte body posted",
					len(arrived), len(want))
			}
		})
	}
}
