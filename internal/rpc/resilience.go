package rpc

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/soap"
)

// TimeoutError builds the portal-standard Timeout fault the Deadline
// middleware relays when it gives up on a handler. The text is
// deterministic in (operation, budget) so the wire shape can be pinned by
// the golden conformance suite.
func TimeoutError(service, operation string, d time.Duration) error {
	return soap.NewPortalError(service, soap.ErrCodeTimeout,
		"operation %s exceeded its %s deadline", operation, d)
}

// Deadline bounds every request below it to budget d: the inner chain runs
// on its own goroutine with a context that expires after d (or earlier, if
// the request context already carries a tighter deadline), and when the
// budget runs out the request is answered immediately with the
// portal-standard Timeout fault.
//
// The expired handler is abandoned, not interrupted — Go cannot kill a
// goroutine — so it keeps running until it observes its cancelled
// Context.Ctx. Abandonment is made safe against the kernel's pooled
// request storage: the inner chain runs on a detached copy of the request
// context (no shared mutable state with outer middleware), and the
// dispatcher is told (Context.Abandon) to leak the request's pooled
// buffers to the garbage collector instead of recycling them under the
// runaway goroutine.
func Deadline(d time.Duration) core.Middleware {
	return func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			cctx, cancel := context.WithTimeout(ctx.Context(), d)
			defer cancel()
			detached := ctx.Detach(cctx)
			res := deadlineResults.Get().(chan deadlineResult)
			deadlineRun(deadlineJob{next: next, cx: detached, args: args, res: res})
			select {
			case r := <-res:
				// The worker has sent and moved on: the channel is drained
				// and exclusively ours again, so it can be recycled. On the
				// timeout path below it cannot be — the abandoned worker
				// still holds it and will send into its buffer slot later.
				deadlineResults.Put(res)
				ctx.Adopt(detached)
				return r.vals, r.err
			case <-cctx.Done():
				ctx.Abandon()
				return nil, TimeoutError(ctx.ServiceNS, ctx.Operation, d)
			}
		}
	}
}

// deadlineResult carries a handler's return across the watchdog boundary.
type deadlineResult struct {
	vals []soap.Value
	err  error
}

// deadlineJob is one admitted request handed to a watchdog worker.
type deadlineJob struct {
	next core.HandlerFunc
	cx   *core.Context
	args soap.Args
	res  chan deadlineResult
}

var deadlineResults = sync.Pool{New: func() interface{} {
	return make(chan deadlineResult, 1)
}}

// Watchdog workers are pooled so the Deadline happy path pays a channel
// handoff instead of a goroutine spawn per request. A worker that finishes
// an abandoned request simply rejoins the pool; idle workers exit after
// deadlineWorkerIdle so the pool never outlives its load (the chaos
// suite's goroutine-leak checks depend on this).
const deadlineWorkerIdle = 100 * time.Millisecond

var deadlineWorkers = make(chan chan deadlineJob, 128)

// deadlineRun hands the job to an idle worker, or spawns a fresh one. The
// handoff send is non-blocking: a pooled inbox whose worker has idled out
// (or is still re-arming its timer) is simply discarded and the job runs
// on a new worker, so no request can be parked on a dead channel.
func deadlineRun(j deadlineJob) {
	select {
	case jobs := <-deadlineWorkers:
		select {
		case jobs <- j:
			return
		default:
		}
	default:
	}
	jobs := make(chan deadlineJob)
	go deadlineWorkerLoop(j, jobs)
}

func deadlineWorkerLoop(j deadlineJob, jobs chan deadlineJob) {
	idle := time.NewTimer(deadlineWorkerIdle)
	defer idle.Stop()
	for {
		vals, err := j.next(j.cx, j.args)
		j.res <- deadlineResult{vals, err} // buffered: never blocks, even abandoned
		select {
		case deadlineWorkers <- jobs:
		default:
			return // pool full: let this worker retire
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(deadlineWorkerIdle)
		select {
		case j = <-jobs:
		case <-idle.C:
			return
		}
	}
}

// ServerBusyError builds the portal-standard ServerBusy fault load
// shedding rejects with: a *soap.Fault carrying the PortalError detail and
// retry advice (relayed as a Retry-After header on the HTTP binding). The
// text is deterministic in the capacity figures so the wire shape can be
// pinned by the golden conformance suite. ServerBusy is, by convention, a
// pre-execution rejection: clients may retry it even for non-idempotent
// operations.
func ServerBusyError(service string, limit, queue int, retryAfter time.Duration) error {
	pe := soap.NewPortalError(service, soap.ErrCodeServerBusy,
		"server at capacity (%d executing, %d queued)", limit, queue)
	f := pe.Fault()
	f.RetryAfter = retryAfter
	return f
}

// loadShedRetryAfter is the retry advice LoadShed's ServerBusy faults carry.
const loadShedRetryAfter = time.Second

// LoadShed bounds concurrent execution to limit requests with a bounded
// wait queue of queue more: when limit requests are executing and queue
// more are waiting, further requests are rejected immediately with a
// ServerBusy fault advising a retry after one second, instead of queueing
// unboundedly — under overload it is better to tell callers to back off
// than to let latency grow without bound. Queued requests still honour
// their deadlines. Rejections are counted by Stats as resilience.shed.
func LoadShed(limit, queue int) core.Middleware {
	if limit <= 0 {
		limit = 1
	}
	if queue < 0 {
		queue = 0
	}
	sem := make(chan struct{}, limit)
	var waiting atomic.Int64
	return func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			select {
			case sem <- struct{}{}:
			default:
				// At the execution limit: join the bounded queue or shed.
				if int(waiting.Add(1)) > queue {
					waiting.Add(-1)
					return nil, ServerBusyError(ctx.ServiceNS, limit, queue, loadShedRetryAfter)
				}
				select {
				case sem <- struct{}{}:
					waiting.Add(-1)
				case <-ctx.Context().Done():
					waiting.Add(-1)
					return nil, soap.NewPortalError(ctx.ServiceNS, soap.ErrCodeTimeout,
						"operation %s cancelled while queued", ctx.Operation)
				}
			}
			defer func() { <-sem }()
			return next(ctx, args)
		}
	}
}

// FaultInjector is the server-side half of the chaos harness: a middleware
// that, with seeded determinism, delays requests and fails them before the
// handler runs. Injected failures are pre-execution by construction, so
// they honour the same retry semantics as real ServerBusy/Unavailable
// rejections — which is exactly what the chaos suite exploits to prove
// retries never duplicate writes.
type FaultInjector struct {
	// Seed makes the fault schedule reproducible; 0 seeds from the clock.
	Seed int64
	// ErrorRate is the probability a request fails before its handler.
	ErrorRate float64
	// LatencyRate is the probability of an injected delay, uniform in
	// (0, MaxLatency].
	LatencyRate float64
	// MaxLatency bounds injected delays; default 10ms when a delay fires.
	MaxLatency time.Duration
	// Code is the portal error code of injected failures;
	// soap.ErrCodeUnavailable when empty.
	Code string

	mu  sync.Mutex
	rng *rand.Rand

	injectedErrors atomic.Uint64
	injectedDelays atomic.Uint64
}

// draw pre-decides one request's fate under the injector's lock.
func (f *FaultInjector) draw() (delay time.Duration, fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng == nil {
		seed := f.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		f.rng = rand.New(rand.NewSource(seed))
	}
	if f.LatencyRate > 0 && f.rng.Float64() < f.LatencyRate {
		max := f.MaxLatency
		if max <= 0 {
			max = 10 * time.Millisecond
		}
		delay = time.Duration(f.rng.Int63n(int64(max))) + 1
	}
	fail = f.ErrorRate > 0 && f.rng.Float64() < f.ErrorRate
	return delay, fail
}

// Injected reports how many delays and errors were injected.
func (f *FaultInjector) Injected() (delays, errors uint64) {
	return f.injectedDelays.Load(), f.injectedErrors.Load()
}

// Middleware returns the injecting middleware.
func (f *FaultInjector) Middleware() core.Middleware {
	return func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			delay, fail := f.draw()
			if delay > 0 {
				f.injectedDelays.Add(1)
				if err := resilience.Sleep(ctx.Context(), delay); err != nil {
					return nil, TimeoutError(ctx.ServiceNS, ctx.Operation, delay)
				}
			}
			if fail {
				f.injectedErrors.Add(1)
				code := f.Code
				if code == "" {
					code = soap.ErrCodeUnavailable
				}
				return nil, soap.NewPortalError(ctx.ServiceNS, code,
					"injected fault before %s", ctx.Operation)
			}
			return next(ctx, args)
		}
	}
}
