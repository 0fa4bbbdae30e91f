package rpc

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// gateDef is a service whose one operation blocks until its gate closes,
// letting drain tests hold a request in flight deterministically.
func gateDef(gate chan struct{}, entered chan struct{}) *Def {
	return &Def{
		Name: "Gate", NS: "urn:test:gate",
		Ops: []Op{{
			Name: "wait",
			Out:  []wsdl.Param{Str("done")},
			Handle: func(_ *core.Context, _ Args) ([]interface{}, error) {
				entered <- struct{}{}
				<-gate
				return Ret("ok"), nil
			},
		}},
	}
}

// TestShutdownSignalsDrain holds a request in flight and verifies Shutdown
// blocks on the drain signal until the handler finishes — and then returns
// promptly, without the old 2 ms poll loop's final sleep.
func TestShutdownSignalsDrain(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	srv := NewServer("drain", "loopback://drain")
	srv.Provider("").MustRegister(gateDef(gate, entered).MustBuild())
	cl := core.NewClient(srv.Transport(), "loopback://drain/Gate", gateDef(gate, entered).Interface())

	callDone := make(chan error, 1)
	go func() {
		_, err := cl.CallText("wait")
		callDone <- err
	}()
	<-entered // the request is inside the handler: in-flight gauge is 1

	shutDone := make(chan error, 1)
	go func() { shutDone <- srv.Shutdown(context.Background()) }()

	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned %v while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	select {
	case err := <-shutDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight request finished")
	}
	if err := <-callDone; err != nil {
		t.Fatalf("in-flight call failed: %v", err)
	}
}

// TestShutdownWithoutStatsTraffic verifies drain terminates when the Stats
// middleware never ran: an idle gauge means an immediately closed drain,
// not a wait on a signal nobody will send.
func TestShutdownWithoutStatsTraffic(t *testing.T) {
	srv := NewServer("idle", "loopback://idle")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown of idle server: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("idle Shutdown took %s, want immediate return", d)
	}
}

// TestWaitIdleContextExpiry verifies an expired drain budget abandons the
// wait with the context error while a request is still in flight.
func TestWaitIdleContextExpiry(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	srv := NewServer("drain-expiry", "loopback://drain-expiry")
	srv.Provider("").MustRegister(gateDef(gate, entered).MustBuild())
	cl := core.NewClient(srv.Transport(), "loopback://drain-expiry/Gate", gateDef(gate, entered).Interface())

	callDone := make(chan struct{})
	go func() {
		_, _ = cl.CallText("wait")
		close(callDone)
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Stats().WaitIdle(ctx); err != context.DeadlineExceeded {
		t.Fatalf("WaitIdle under load = %v, want context.DeadlineExceeded", err)
	}
	close(gate)
	<-callDone
	if err := srv.Stats().WaitIdle(context.Background()); err != nil {
		t.Fatalf("WaitIdle after drain: %v", err)
	}
}

// cacheProbeDef pairs a cacheable read with a write so the flush tests can
// populate a response cache through the normal middleware path.
func cacheProbeDef() *Def {
	return &Def{
		Name: "CacheProbe", NS: "urn:test:cacheprobe",
		Ops: []Op{
			{
				Name: "getValue",
				In:   []wsdl.Param{Str("key")},
				Out:  []wsdl.Param{Str("value")},
				Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
					return Ret("v:" + in.Str("key")), nil
				},
			},
		},
	}
}

// TestFlushControlOp pins the __flush endpoint's contract: token-gated,
// POST-only, namespace-scoped, with the empty namespace flushing every
// registered cache.
func TestFlushControlOp(t *testing.T) {
	srv := NewServer("flush", "http://flush.local")
	cacheA := NewResponseCache(time.Minute, 64)
	cacheB := NewResponseCache(time.Minute, 64)
	srv.Provider("/a", cacheA.Middleware(OpPrefixes("get"))).MustRegister(cacheProbeDef().MustBuild())
	srv.Provider("/b", cacheB.Middleware(OpPrefixes("get"))).MustRegister(cacheProbeDef().MustBuild())
	srv.RegisterFlushCache("urn:test:cacheprobe-a", cacheA)
	srv.RegisterFlushCache("urn:test:cacheprobe-b", cacheB)
	srv.EnableCacheFlush("sekrit")

	warm := func(prefix string) {
		t.Helper()
		cl := core.NewClient(srv.Transport(), "http://flush.local"+prefix+"/CacheProbe", cacheProbeDef().Interface())
		if _, err := cl.CallText("getValue", soap.Str("key", "k")); err != nil {
			t.Fatalf("warm %s: %v", prefix, err)
		}
	}
	entries := func(c *ResponseCache) int {
		_, _, n := c.Stats()
		return n
	}
	warm("/a")
	warm("/b")
	if entries(cacheA) != 1 || entries(cacheB) != 1 {
		t.Fatalf("warmed entries = %d/%d, want 1/1", entries(cacheA), entries(cacheB))
	}

	flush := func(ns, token, method string) int {
		t.Helper()
		url := "http://flush.local" + FlushPath
		if ns != "" {
			url += "?ns=" + ns
		}
		req := httptest.NewRequest(method, url, strings.NewReader(""))
		if token != "" {
			req.Header.Set(FlushTokenHeader, token)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec.Code
	}

	if code := flush("urn:test:cacheprobe-a", "sekrit", http.MethodGet); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET flush: HTTP %d, want 405", code)
	}
	if code := flush("urn:test:cacheprobe-a", "wrong", http.MethodPost); code != http.StatusForbidden {
		t.Fatalf("bad-token flush: HTTP %d, want 403", code)
	}
	if code := flush("urn:test:cacheprobe-a", "", http.MethodPost); code != http.StatusForbidden {
		t.Fatalf("no-token flush: HTTP %d, want 403", code)
	}
	if entries(cacheA) != 1 || entries(cacheB) != 1 {
		t.Fatal("rejected flushes must not drop entries")
	}

	if code := flush("urn:test:cacheprobe-a", "sekrit", http.MethodPost); code != http.StatusOK {
		t.Fatalf("scoped flush: HTTP %d, want 200", code)
	}
	if entries(cacheA) != 0 || entries(cacheB) != 1 {
		t.Fatalf("scoped flush entries = %d/%d, want 0/1", entries(cacheA), entries(cacheB))
	}

	warm("/a")
	if code := flush("", "sekrit", http.MethodPost); code != http.StatusOK {
		t.Fatalf("global flush: HTTP %d, want 200", code)
	}
	if entries(cacheA) != 0 || entries(cacheB) != 0 {
		t.Fatalf("global flush entries = %d/%d, want 0/0", entries(cacheA), entries(cacheB))
	}
	if got := srv.Flushes(); got != 2 {
		t.Fatalf("Flushes() = %d, want 2", got)
	}
}
