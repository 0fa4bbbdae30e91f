package gateway_test

// Gateway chaos suite: two live backends, a seeded ChaosTransport tearing
// up one of them (then a kill switch taking it out entirely), and the
// gateway's invariants checked from the caller's seat:
//
//  1. idempotent requests always succeed while one backend is healthy,
//     with responses byte-identical to a direct connection,
//  2. non-idempotent writes are never duplicated — a lost response means
//     a typed fault, not a silent replay on another replica,
//  3. health-aware routing converges: a dead backend's circuit opens and
//     traffic flows to the survivor,
//  4. no goroutine leaks after Close.
//
// CI runs these under -race (chaos smoke step).

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batchscript"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/uddi"
)

// recorderFetch serves the gateway's discovery and health GETs straight
// from an in-process handler, gated by an optional kill switch.
func recorderFetch(backends map[string]http.Handler, dead map[string]*atomic.Bool) func(string) (string, error) {
	return func(u string) (string, error) {
		parsed, err := url.Parse(u)
		if err != nil {
			return "", err
		}
		base := parsed.Scheme + "://" + parsed.Host
		h, ok := backends[base]
		if !ok {
			return "", fmt.Errorf("no such backend %q", base)
		}
		if d := dead[base]; d != nil && d.Load() {
			return "", fmt.Errorf("GET %s: connection refused", u)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("GET %s: HTTP %d", u, rec.Code)
		}
		return rec.Body.String(), nil
	}
}

// routingForwarder picks a per-backend forwarder, so one backend's wire
// can burn while the other's stays clean.
type routingForwarder struct {
	m map[string]gateway.Forwarder
}

func (r *routingForwarder) Forward(ctx context.Context, backend, path, action string, body []byte, resp *bytes.Buffer) (gateway.ForwardResult, error) {
	return r.m[backend].Forward(ctx, backend, path, action, body, resp)
}

// killableRT simulates a crashed backend: once dead, every round trip is
// refused before the inner transport sees it.
type killableRT struct {
	inner soap.Transport
	dead  *atomic.Bool
}

func (k *killableRT) RoundTripRawCtx(ctx context.Context, endpoint, action string, req *soap.Envelope, resp *bytes.Buffer) error {
	if k.dead.Load() {
		return fmt.Errorf("soap: post %s: connection refused", endpoint)
	}
	return k.inner.RoundTripRawCtx(ctx, endpoint, action, req, resp)
}

func waitGoroutines(t *testing.T, baseline int) {
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

// chaosFleet wires two in-process backends behind a gateway: backend a's
// wire runs through a seeded ChaosTransport (and a kill switch), backend
// b stays clean.
func chaosFleet(t *testing.T, build func(srv *rpc.Server), drop float64) (*gateway.Gateway, *soap.ChaosTransport, *atomic.Bool) {
	t.Helper()
	srvA := rpc.NewServer("a", "http://a.test")
	build(srvA)
	srvB := rpc.NewServer("b", "http://b.test")
	build(srvB)

	var aDead atomic.Bool
	chaos := &soap.ChaosTransport{
		Inner:    srvA.Transport(),
		Seed:     7,
		DropRate: drop,
	}

	gw := gateway.New("gw", "http://gw.local")
	gw.Breakers = &resilience.BreakerSet{Config: resilience.BreakerConfig{
		FailureThreshold: 2, OpenFor: 300 * time.Millisecond,
	}}
	gw.Fetch = recorderFetch(
		map[string]http.Handler{"http://a.test": srvA.Handler(), "http://b.test": srvB.Handler()},
		map[string]*atomic.Bool{"http://a.test": &aDead},
	)
	gw.Forward = &routingForwarder{m: map[string]gateway.Forwarder{
		"http://a.test": &gateway.TransportForwarder{RT: &killableRT{inner: chaos, dead: &aDead}},
		"http://b.test": &gateway.TransportForwarder{RT: srvB.Transport()},
	}}
	if err := gw.Mount("http://a.test", "http://b.test"); err != nil {
		t.Fatal(err)
	}
	return gw, chaos, &aDead
}

// TestChaosGatewayFailover: every idempotent request through a
// half-broken fleet must succeed with the exact bytes a direct call to a
// healthy node returns — first with one backend dropping 50% of its
// responses, then with that backend dead outright.
func TestChaosGatewayFailover(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srvRef := rpc.NewServer("ref", "http://ref.test")
	register := func(srv *rpc.Server) {
		srv.Provider("/ssp").MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
	}
	register(srvRef)
	gw, chaos, aDead := chaosFleet(t, register, 0.5)
	gw.StartHealth(10 * time.Millisecond)
	defer waitGoroutines(t, baseline)
	defer gw.Close()

	send := func(i int) (int, []byte, []byte) {
		call := &soap.Call{ServiceNS: batchscript.ServiceNS, Method: "generateScript", Params: []soap.Value{
			soap.Str("scheduler", "PBS"), soap.Str("jobName", fmt.Sprintf("job-%d", i)),
			soap.Str("executable", "/bin/date"), soap.StrArray("arguments", []string{"-u"}),
			soap.Str("stdin", ""), soap.Str("queue", "batch"),
			soap.Int("nodes", 4), soap.Int("wallTimeSeconds", 3600),
		}}
		var body bytes.Buffer
		call.WireEnvelope().AppendTo(&body)

		// Reference bytes from an untouched node: what a direct client sees.
		var want bytes.Buffer
		if err := srvRef.Transport().RoundTripRawCtx(context.Background(),
			"http://ref.test/ssp/BatchScriptGenerator", batchscript.ServiceNS+"#generateScript",
			soap.RawEnvelope(body.Bytes()), &want); err != nil {
			t.Fatal(err)
		}

		rec := do(gw, http.MethodPost, "http://gw.local/ssp/BatchScriptGenerator", body.Bytes())
		return rec.Code, rec.Body.Bytes(), want.Bytes()
	}

	// Phase 1: backend a drops half its responses; varied job names spread
	// the routing keys over both nodes, so chaos genuinely fires.
	for i := 0; i < 40; i++ {
		code, got, want := send(i)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d\n%s", i, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: response diverges from direct\n got: %s\nwant: %s", i, got, want)
		}
	}
	if _, _, drops, _ := chaos.Injected(); drops == 0 {
		t.Error("chaos never fired: the failover path went unexercised")
	}

	// Phase 2: backend a dies outright; health probes must open its
	// circuit, and the survivor must carry every request.
	aDead.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for gw.Breakers.For("http://a.test").State() != resilience.StateOpen {
		if time.Now().After(deadline) {
			t.Fatal("dead backend's circuit never opened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 40; i < 60; i++ {
		code, got, want := send(i)
		if code != http.StatusOK {
			t.Fatalf("post-kill request %d: status %d\n%s", i, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("post-kill request %d: response diverges from direct", i)
		}
	}
}

// saveCounter counts saveBusiness handler executions — the ground truth
// the duplicate-write invariant is checked against.
type saveCounter struct {
	saves atomic.Uint64
}

func (e *saveCounter) mw(next core.HandlerFunc) core.HandlerFunc {
	return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
		if ctx.Operation == "saveBusiness" {
			e.saves.Add(1)
		}
		return next(ctx, args)
	}
}

// TestChaosGatewayWritesNotDuplicated: a non-idempotent write whose
// response is lost must surface as a typed Unavailable fault — never a
// silent retry on another replica. Handler executions can therefore never
// exceed the number of calls, and every non-success is a classifiable
// fault.
func TestChaosGatewayWritesNotDuplicated(t *testing.T) {
	baseline := runtime.NumGoroutine()
	counters := make([]*saveCounter, 0, 2)
	register := func(srv *rpc.Server) {
		c := &saveCounter{}
		counters = append(counters, c)
		svc := uddi.NewService(uddi.NewRegistry())
		svc.Use(c.mw)
		srv.Provider("/uddi").MustRegister(svc)
	}
	gw, chaos, _ := chaosFleet(t, register, 0.4)
	gw.StartHealth(10 * time.Millisecond)
	defer waitGoroutines(t, baseline)
	defer gw.Close()

	const calls = 60
	successes, faults := 0, 0
	for i := 0; i < calls; i++ {
		call := &soap.Call{ServiceNS: uddi.ServiceNS, Method: "saveBusiness", Params: []soap.Value{
			soap.Str("name", fmt.Sprintf("biz-%d", i)),
			soap.Str("description", "chaos probe"),
		}}
		var body bytes.Buffer
		call.WireEnvelope().AppendTo(&body)
		rec := do(gw, http.MethodPost, "http://gw.local/uddi/UDDIRegistry", body.Bytes())
		switch {
		case rec.Code == http.StatusOK && !soap.IsFaultBytes(rec.Body.Bytes()):
			successes++
		case rec.Code == http.StatusInternalServerError:
			// Must be the gateway's typed degradation answer (or a relayed
			// backend fault), never a torn body.
			f := parseFault(t, rec.Body.Bytes())
			if pe := f.PortalError(); pe == nil {
				t.Fatalf("call %d: untyped fault %+v", i, f)
			}
			faults++
		default:
			t.Fatalf("call %d: unclassifiable response %d\n%s", i, rec.Code, rec.Body.Bytes())
		}
	}

	execs := counters[0].saves.Load() + counters[1].saves.Load()
	if execs > calls {
		t.Errorf("duplicated writes: %d executions for %d calls", execs, calls)
	}
	if uint64(successes) > execs {
		t.Errorf("%d successes but only %d executions", successes, execs)
	}
	if successes == 0 {
		t.Error("no write ever succeeded under chaos")
	}
	if faults == 0 {
		t.Error("chaos never surfaced a fault: drop rate had no effect")
	}
	t.Logf("calls=%d successes=%d faults=%d executions=%d", calls, successes, faults, execs)
	if _, _, drops, _ := chaos.Injected(); drops == 0 {
		t.Error("chaos transport never dropped a response")
	}
}
