package rpc

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// resilienceDef is a minimal service for exercising the server-side
// resilience middleware: a fast echo, a handler that blocks until its
// context is cancelled, and a gate-controlled handler for concurrency
// tests.
func resilienceDef(gate chan struct{}) *Def {
	return &Def{
		Name: "ResilienceProbe",
		NS:   "urn:test:resilience",
		Ops: []Op{
			{
				Name: "echo", In: []wsdl.Param{Str("s")}, Out: []wsdl.Param{Str("s")},
				Idempotent: true,
				Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
					return Ret(in.Str("s")), nil
				},
			},
			{
				Name: "hang", Out: []wsdl.Param{Str("never")},
				Handle: func(cx *core.Context, _ Args) ([]interface{}, error) {
					<-cx.Context().Done()
					return nil, cx.Context().Err()
				},
			},
			{
				Name: "block", Out: []wsdl.Param{Str("ok")},
				Handle: func(_ *core.Context, _ Args) ([]interface{}, error) {
					if gate != nil {
						<-gate
					}
					return Ret("ok"), nil
				},
			},
		},
	}
}

func TestDeadlineMiddleware(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := NewServer("deadline", "loopback://deadline")
	srv.Provider("", Deadline(15*time.Millisecond)).MustRegister(resilienceDef(nil).MustBuild())
	cl := core.NewClient(srv.Transport(), "loopback://deadline/ResilienceProbe", resilienceDef(nil).Interface())

	// Fast requests pass untouched.
	resp, release, err := cl.Call(context.Background(), "echo", soap.Str("s", "hi"))
	if err != nil || resp.ReturnText("s") != "hi" {
		t.Fatalf("echo under deadline: %v %v", resp, err)
	}
	release()

	// A hung handler is answered with the deterministic Timeout fault.
	start := time.Now()
	_, err = cl.CallText("hang")
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeTimeout {
		t.Fatalf("hang: got %v, want Timeout portal error", err)
	}
	if want := "operation hang exceeded its 15ms deadline"; pe.Message != want {
		t.Errorf("fault text %q, want %q (the golden suite pins this shape)", pe.Message, want)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("timeout answered after %v, budget was 15ms", elapsed)
	}
	if srv.Stats().ResilienceSnapshot().Timeouts == 0 {
		t.Error("timeout not counted in stats")
	}

	// The abandoned handler goroutine exits once its context is cancelled.
	waitGoroutinesInternal(t, baseline)
}

// TestDeadlineTighterCallerContext verifies the middleware composes with a
// caller deadline: whichever budget is tighter wins.
func TestDeadlineTighterCallerContext(t *testing.T) {
	srv := NewServer("deadline2", "loopback://deadline2")
	srv.Provider("", Deadline(10*time.Second)).MustRegister(resilienceDef(nil).MustBuild())
	cl := core.NewClient(srv.Transport(), "loopback://deadline2/ResilienceProbe", resilienceDef(nil).Interface())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, release, err := cl.Call(ctx, "hang")
	release()
	if err == nil {
		t.Fatal("hang returned without error under 10ms caller deadline")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("caller deadline honoured after %v, want ~10ms", elapsed)
	}
}

func waitGoroutinesInternal(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+5 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestLoadShedRetryAfterHeader drives load shedding over real HTTP and
// checks the ServerBusy fault arrives with the Retry-After header the
// HTTP binding promises.
func TestLoadShedRetryAfterHeader(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServer("shed", "placeholder")
	srv.Provider("", LoadShed(1, 0)).MustRegister(resilienceDef(gate).MustBuild())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.SetBaseURL(hs.URL)

	post := func(method string) (*http.Response, string) {
		call := &soap.Call{ServiceNS: "urn:test:resilience", Method: method}
		var buf bytes.Buffer
		call.WireEnvelope().AppendTo(&buf)
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/ResilienceProbe", &buf)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", soap.ContentType)
		req.Header.Set("SOAPAction", `"urn:test:resilience#`+method+`"`)
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	// Fill the single execution slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post("block")
	}()
	// Wait until the blocked request is inside the handler.
	for i := 0; srv.Stats().InFlight() == 0; i++ {
		if i > 1000 {
			t.Fatal("blocked request never entered the chain")
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is zero-length: this request must shed immediately.
	resp, body := post("echo")
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(body, soap.ErrCodeServerBusy) {
		t.Errorf("shed response body lacks ServerBusy code: %s", body)
	}
	if !strings.Contains(body, "server at capacity (1 executing, 0 queued)") {
		t.Errorf("shed fault text not deterministic: %s", body)
	}

	close(gate)
	wg.Wait()
	if srv.Stats().ResilienceSnapshot().Shed == 0 {
		t.Error("shed not counted in stats")
	}
}

// TestLoadShedQueueWait verifies a queued request proceeds when the slot
// frees, and is answered with the Timeout fault if its caller gives up
// while queued.
func TestLoadShedQueueWait(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServer("queue", "loopback://queue")
	srv.Provider("", LoadShed(1, 4)).MustRegister(resilienceDef(gate).MustBuild())
	cl := core.NewClient(srv.Transport(), "loopback://queue/ResilienceProbe", resilienceDef(nil).Interface())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := cl.CallText("block"); err != nil {
			t.Errorf("blocked call: %v", err)
		}
	}()
	for i := 0; srv.Stats().InFlight() == 0; i++ {
		if i > 1000 {
			t.Fatal("blocked request never entered the chain")
		}
		time.Sleep(time.Millisecond)
	}

	// Queued caller with a short deadline gets the queued-timeout fault.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, release, err := cl.Call(ctx, "echo", soap.Str("s", "queued"))
	release()
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeTimeout {
		t.Fatalf("queued call under deadline: got %v, want Timeout portal error", err)
	}

	// Free the slot; a queued caller with headroom completes.
	done := make(chan error, 1)
	go func() {
		_, err := cl.CallText("echo", soap.Str("s", "after"))
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	close(gate)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("queued call after release: %v", err)
	}
}

// TestFaultInjectorDeterminism: the same seed must produce the same fault
// schedule — the property every chaos run's reproducibility rests on.
func TestFaultInjectorDeterminism(t *testing.T) {
	mk := func() *FaultInjector {
		return &FaultInjector{Seed: 42, ErrorRate: 0.3, LatencyRate: 0.3, MaxLatency: time.Millisecond}
	}
	a, b := mk(), mk()
	for i := 0; i < 500; i++ {
		ad, af := a.draw()
		bd, bf := b.draw()
		if ad != bd || af != bf {
			t.Fatalf("draw %d diverged: (%v,%v) vs (%v,%v)", i, ad, af, bd, bf)
		}
	}
	da, ea := a.Injected()
	db, eb := b.Injected()
	_ = da
	_ = db
	if ea != eb {
		t.Fatalf("injected error counts diverged: %d vs %d", ea, eb)
	}
}

// TestHealthzResilienceSection: the /healthz document carries the
// degradation counters and registered breaker/retry state.
func TestHealthzResilienceSection(t *testing.T) {
	srv := NewServer("healthz", "placeholder")
	srv.Provider("", Deadline(5*time.Millisecond)).MustRegister(resilienceDef(nil).MustBuild())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.SetBaseURL(hs.URL)

	cl := core.NewClient(srv.Transport(), hs.URL+"/ResilienceProbe", resilienceDef(nil).Interface())
	if _, err := cl.CallText("hang"); err == nil {
		t.Fatal("hang should time out")
	}

	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	doc := string(body)
	for _, want := range []string{`"resilience"`, `"inFlight"`, `"timeouts": 1`} {
		if !strings.Contains(doc, want) {
			t.Errorf("healthz missing %s:\n%s", want, doc)
		}
	}
}

// TestListenAndServeGracefulSIGTERM boots a real listener and delivers a
// real SIGTERM: the loop must drain and return nil — the contract every
// portal binary's main depends on.
func TestListenAndServeGracefulSIGTERM(t *testing.T) {
	srv := NewServer("graceful", "http://127.0.0.1:0")
	srv.Provider("").MustRegister(resilienceDef(nil).MustBuild())

	done := make(chan error, 1)
	go func() {
		done <- srv.ListenAndServeGraceful("127.0.0.1:0", 2*time.Second)
	}()
	// Let the listener install itself before signalling.
	time.Sleep(100 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful loop returned %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graceful loop did not return after SIGTERM")
	}
	if !srv.Draining() {
		t.Error("server not draining after signal shutdown")
	}
}
