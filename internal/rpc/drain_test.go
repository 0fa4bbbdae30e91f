package rpc

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
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
