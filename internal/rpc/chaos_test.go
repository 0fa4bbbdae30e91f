package rpc_test

// Chaos suite: drives a real portal service (the UDDI registry, whose
// sharded store and non-idempotent saveBusiness make it the sharpest
// probe) through the full resilience stack — Deadline, LoadShed and
// FaultInjector on the server, retry + circuit breaking on the client,
// and a seeded ChaosTransport tearing up the wire in between — and then
// asserts the layer's four invariants:
//
//  1. no goroutine leaks (abandoned handlers and queued waiters all exit),
//  2. no torn state in the sharded registry (entities stored == handler
//     executions),
//  3. every failure surfaces as a typed error the caller can classify,
//  4. retries never duplicate non-idempotent writes.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/uddi"
)

// execCounter counts handler executions per operation. Installed as the
// innermost service middleware (after the fault injector), it increments
// only when a request actually reaches its handler — the ground truth the
// duplicate-write invariant is checked against.
type execCounter struct {
	saves atomic.Uint64
	finds atomic.Uint64
}

func (e *execCounter) mw(next core.HandlerFunc) core.HandlerFunc {
	return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
		switch ctx.Operation {
		case "saveBusiness":
			e.saves.Add(1)
		case "findBusiness":
			e.finds.Add(1)
		}
		return next(ctx, args)
	}
}

// waitGoroutines polls until the goroutine count returns to near baseline;
// abandoned deadline handlers and backoff sleepers need a moment to
// observe their cancelled contexts.
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

// typedFailure reports whether err is one of the failure shapes the
// resilience layer contracts to surface. Torn (truncated) responses are
// the one exception handled by the caller in chaosClassify.
func typedFailure(err error) bool {
	return soap.AsPortalError(err) != nil ||
		soap.AsFault(err) != nil ||
		errors.Is(err, resilience.ErrOpen) ||
		errors.Is(err, soap.ErrInjected) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

func TestChaosEndToEnd(t *testing.T) {
	baseline := runtime.NumGoroutine()

	reg := uddi.NewRegistry()
	svc := uddi.NewService(reg)
	inj := &rpc.FaultInjector{Seed: 7, ErrorRate: 0.15, LatencyRate: 0.25, MaxLatency: 2 * time.Millisecond}
	ec := &execCounter{}
	svc.Use(inj.Middleware())
	svc.Use(ec.mw) // innermost: counts only requests that reach the handler

	srv := rpc.NewServer("chaos", "loopback://chaos")
	srv.Provider("", rpc.Deadline(250*time.Millisecond), rpc.LoadShed(8, 16)).MustRegister(svc)

	chaos := &soap.ChaosTransport{
		Inner:        srv.Transport(),
		Seed:         11,
		LatencyRate:  0.2,
		MaxLatency:   2 * time.Millisecond,
		ErrorRate:    0.1,
		DropRate:     0.1,
		TruncateRate: 0.05,
	}
	retry := &resilience.RetryPolicy{
		MaxAttempts: 3,
		Backoff:     resilience.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
		Seed:        13,
	}
	cl := core.NewClient(chaos, "loopback://chaos/UDDIRegistry", uddi.Contract())
	cl.Retry = retry
	cl.Breakers = &resilience.BreakerSet{Config: resilience.BreakerConfig{
		FailureThreshold: 10, OpenFor: 5 * time.Millisecond,
	}}
	srv.Stats().RegisterBreakers("uddi", cl.Breakers)
	srv.Stats().RegisterRetry("uddi", retry)

	const workers, perWorker = 8, 30
	var (
		mu        sync.Mutex
		failures  []error
		successes int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				var (
					release func()
					err     error
				)
				if i%2 == 0 {
					_, release, err = cl.Call(ctx, "findBusiness", soap.Str("name", "chaos"))
				} else {
					_, release, err = cl.Call(ctx, "saveBusiness",
						soap.Str("name", fmt.Sprintf("chaos-%d-%d", w, i)),
						soap.Str("description", "chaos suite entity"))
				}
				release()
				cancel()
				mu.Lock()
				if err != nil {
					failures = append(failures, err)
				} else {
					successes++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if successes == 0 {
		t.Fatal("chaos drowned every call; the suite proves nothing")
	}

	// Invariant 3: every failure is a typed, classifiable error. The only
	// exception is a response torn by injected truncation, which surfaces
	// as an envelope parse error — permitted only when truncations fired.
	_, _, _, truncations := chaos.Injected()
	for _, err := range failures {
		if !typedFailure(err) && truncations == 0 {
			t.Errorf("untyped failure: %v", err)
		}
	}

	// Invariant 2: the sharded registry holds exactly one entity per
	// handler execution — no torn, duplicated, or lost state.
	stored := len(reg.FindBusiness("chaos-"))
	if got := int(ec.saves.Load()); stored != got {
		t.Errorf("sharded store torn: %d entities stored, %d saveBusiness executions", stored, got)
	}

	// Invariant 4: saveBusiness is not idempotent, so no logical call may
	// execute twice. Pre-execution rejections (shed, injected portal
	// faults) are retried but never reached the handler.
	logicalSaves := workers * perWorker / 2
	if got := int(ec.saves.Load()); got > logicalSaves {
		t.Errorf("duplicate writes: %d executions for %d logical saveBusiness calls", got, logicalSaves)
	}

	// The health document should reflect the chaos the stack absorbed.
	rs := srv.Stats().ResilienceSnapshot()
	if rs.InFlight != 0 {
		t.Errorf("in-flight gauge stuck at %d", rs.InFlight)
	}

	// Invariant 1: nothing left running.
	waitGoroutines(t, baseline)
}

// TestChaosRetriesNeverDuplicateWrites is the sharp version of invariant 4:
// with a transport that executes every request but loses half the
// responses, a retrying client must still execute each non-idempotent
// write exactly once, while idempotent reads retry through the losses.
func TestChaosRetriesNeverDuplicateWrites(t *testing.T) {
	reg := uddi.NewRegistry()
	svc := uddi.NewService(reg)
	ec := &execCounter{}
	svc.Use(ec.mw)
	srv := rpc.NewServer("chaos-dup", "loopback://chaos-dup")
	srv.Provider("").MustRegister(svc)

	chaos := &soap.ChaosTransport{
		Inner:    srv.Transport(),
		Seed:     3,
		DropRate: 0.5,
	}
	retry := &resilience.RetryPolicy{
		MaxAttempts: 4,
		Backoff:     resilience.Backoff{Base: 100 * time.Microsecond, Max: time.Millisecond},
		Seed:        5,
	}
	cl := core.NewClient(chaos, "loopback://chaos-dup/UDDIRegistry", uddi.Contract())
	cl.Retry = retry

	const saves = 60
	saveFailures := 0
	for i := 0; i < saves; i++ {
		_, err := cl.CallText("saveBusiness",
			soap.Str("name", fmt.Sprintf("dup-%d", i)),
			soap.Str("description", "exactly once"))
		if err != nil {
			if !errors.Is(err, soap.ErrInjected) {
				t.Fatalf("save %d: unexpected failure kind: %v", i, err)
			}
			saveFailures++
		}
	}
	if got := int(ec.saves.Load()); got != saves {
		t.Fatalf("saveBusiness executed %d times for %d logical calls (dropped responses must not be retried)", got, saves)
	}
	if stored := len(reg.FindBusiness("dup-")); stored != saves {
		t.Fatalf("registry holds %d entities, want %d", stored, saves)
	}
	if saveFailures == 0 {
		t.Fatal("no responses dropped; DropRate did not exercise the invariant")
	}

	// Idempotent reads ride through the same losses on retries.
	const finds = 40
	findFailures := 0
	for i := 0; i < finds; i++ {
		if _, err := cl.CallText("findBusiness", soap.Str("name", "dup-")); err != nil {
			findFailures++
		}
	}
	if got := int(ec.finds.Load()); got <= finds {
		t.Errorf("findBusiness executed %d times for %d calls; retries never fired", got, finds)
	}
	if findFailures >= finds/2 {
		t.Errorf("%d/%d idempotent reads failed despite retries (expected ~6%% at 0.5 drop, 4 attempts)", findFailures, finds)
	}
	if retry.Retries() == 0 {
		t.Error("retry policy recorded no retries")
	}
}

// TestChaosDrainUnderLoad proves graceful drain: mid-burst Shutdown lets
// every admitted request finish, refuses the rest with the Unavailable
// fault, and leaves the in-flight gauge at zero.
func TestChaosDrainUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	reg := uddi.NewRegistry()
	svc := uddi.NewService(reg)
	inj := &rpc.FaultInjector{Seed: 17, LatencyRate: 1, MaxLatency: 3 * time.Millisecond}
	ec := &execCounter{}
	svc.Use(inj.Middleware())
	svc.Use(ec.mw)
	srv := rpc.NewServer("chaos-drain", "loopback://chaos-drain")
	srv.Provider("").MustRegister(svc)

	cl := core.NewClient(srv.Transport(), "loopback://chaos-drain/UDDIRegistry", uddi.Contract())

	const calls = 40
	var (
		wg        sync.WaitGroup
		successes atomic.Uint64
		drained   atomic.Uint64
	)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := cl.CallText("saveBusiness",
				soap.Str("name", fmt.Sprintf("drain-%d", i)),
				soap.Str("description", "in flight"))
			switch {
			case err == nil:
				successes.Add(1)
			case soap.AsPortalError(err) != nil && soap.AsPortalError(err).Code == soap.ErrCodeUnavailable:
				drained.Add(1)
			default:
				t.Errorf("call %d: unexpected failure during drain: %v", i, err)
			}
		}(i)
	}

	time.Sleep(2 * time.Millisecond) // let a few requests into the chain
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	if srv.Stats().InFlight() != 0 {
		t.Errorf("in-flight gauge %d after drain", srv.Stats().InFlight())
	}
	// Admitted requests all finished; refused ones never executed.
	if got := int(successes.Load()); got != int(ec.saves.Load()) {
		t.Errorf("%d successes vs %d executions: drain lost or duplicated work", got, ec.saves.Load())
	}
	if stored := len(reg.FindBusiness("drain-")); stored != int(successes.Load()) {
		t.Errorf("registry holds %d entities, %d calls succeeded", stored, successes.Load())
	}
	if successes.Load()+drained.Load() != calls {
		t.Errorf("accounting hole: %d successes + %d drained != %d calls",
			successes.Load(), drained.Load(), calls)
	}

	// New work after drain is refused with retry advice.
	_, err := cl.CallText("findBusiness", soap.Str("name", "drain-"))
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeUnavailable {
		t.Errorf("post-drain call: got %v, want Unavailable fault", err)
	}
	if srv.Stats().ResilienceSnapshot().Drained == 0 {
		t.Error("drained counter never incremented")
	}

	waitGoroutines(t, baseline)
}

// flakyTransport fails every round trip at the transport level while down,
// driving the client's circuit breaker.
type flakyTransport struct {
	down  atomic.Bool
	inner soap.Transport
}

func (f *flakyTransport) RoundTripRawCtx(ctx context.Context, endpoint, action string, req *soap.Envelope, resp *bytes.Buffer) error {
	if f.down.Load() {
		return errors.New("dial tcp: connection refused")
	}
	return f.inner.RoundTripRawCtx(ctx, endpoint, action, req, resp)
}

// TestChaosBreakerRecovery walks the circuit through its whole lifecycle
// against a failing-then-healed endpoint: closed → open (fail fast) →
// half-open probe → closed again.
func TestChaosBreakerRecovery(t *testing.T) {
	reg := uddi.NewRegistry()
	srv := rpc.NewServer("chaos-breaker", "loopback://chaos-breaker")
	srv.Provider("").MustRegister(uddi.NewService(reg))

	ft := &flakyTransport{inner: srv.Transport()}
	ft.down.Store(true)
	cl := core.NewClient(ft, "loopback://chaos-breaker/UDDIRegistry", uddi.Contract())
	cl.Breakers = &resilience.BreakerSet{Config: resilience.BreakerConfig{
		FailureThreshold: 2, OpenFor: 30 * time.Millisecond, HalfOpenProbes: 1,
	}}

	find := func() error {
		_, err := cl.CallText("findBusiness", soap.Str("name", "x"))
		return err
	}

	// Two transport failures trip the breaker.
	for i := 0; i < 2; i++ {
		if err := find(); err == nil || errors.Is(err, resilience.ErrOpen) {
			t.Fatalf("failure %d: got %v, want transport error", i, err)
		}
	}
	br := cl.Breakers.For(cl.Endpoint)
	if got := br.State(); got != resilience.StateOpen {
		t.Fatalf("breaker state %v after threshold failures, want open", got)
	}
	// While open, calls fail fast without touching the endpoint.
	if err := find(); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("open circuit returned %v, want ErrOpen", err)
	}

	// Heal the endpoint; after the open window one probe closes the circuit.
	ft.down.Store(false)
	time.Sleep(35 * time.Millisecond)
	if err := find(); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if got := br.State(); got != resilience.StateClosed {
		t.Fatalf("breaker state %v after successful probe, want closed", got)
	}
	if err := find(); err != nil {
		t.Fatalf("closed circuit call failed: %v", err)
	}
	snap := br.Snapshot()
	if snap.Opens != 1 || snap.Rejected == 0 {
		t.Errorf("breaker snapshot %+v: want exactly one open with fail-fast rejections", snap)
	}
}
