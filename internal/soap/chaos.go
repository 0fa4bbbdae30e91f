package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks transport failures manufactured by a ChaosTransport,
// so chaos tests can tell injected faults from real ones.
var ErrInjected = errors.New("soap: injected transport fault")

// ChaosTransport wraps a transport with deterministic, seeded fault
// injection: added latency, pre-send errors (the backend was never
// reached), dropped responses (the request executed but its response was
// lost), and truncated responses (torn bytes on the wire). It drives the
// chaos suite that proves the resilience layer's invariants — in
// particular that dropped responses, which may have executed server-side,
// are never blindly retried for non-idempotent operations.
type ChaosTransport struct {
	// Inner is the transport actually carrying surviving requests.
	Inner Transport
	// Seed makes the fault schedule reproducible; 0 seeds from the clock.
	Seed int64
	// LatencyRate is the probability of injecting a delay, uniform in
	// (0, MaxLatency], before the request is sent.
	LatencyRate float64
	// MaxLatency bounds injected delays; default 10ms when a delay fires.
	MaxLatency time.Duration
	// ErrorRate is the probability the request fails before being sent.
	ErrorRate float64
	// DropRate is the probability the response is discarded after the
	// request was delivered and executed.
	DropRate float64
	// TruncateRate is the probability the response bytes are cut short.
	TruncateRate float64

	mu  sync.Mutex
	rng *rand.Rand

	injectedDelays      atomic.Uint64
	injectedErrors      atomic.Uint64
	injectedDrops       atomic.Uint64
	injectedTruncations atomic.Uint64
}

// chaosPlan is one round trip's pre-drawn fate; drawing all randomness up
// front under one lock keeps the schedule deterministic per seed even
// under concurrency (the interleaving of draws, not of requests, decides
// each call's fate).
type chaosPlan struct {
	delay    time.Duration
	preErr   bool
	drop     bool
	truncate bool
	truncAt  float64
}

func (c *ChaosTransport) plan() chaosPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		seed := c.Seed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	var p chaosPlan
	if c.LatencyRate > 0 && c.rng.Float64() < c.LatencyRate {
		max := c.MaxLatency
		if max <= 0 {
			max = 10 * time.Millisecond
		}
		p.delay = time.Duration(c.rng.Int63n(int64(max))) + 1
	}
	p.preErr = c.ErrorRate > 0 && c.rng.Float64() < c.ErrorRate
	p.drop = c.DropRate > 0 && c.rng.Float64() < c.DropRate
	p.truncate = c.TruncateRate > 0 && c.rng.Float64() < c.TruncateRate
	p.truncAt = c.rng.Float64()
	return p
}

// Injected reports how many faults of each kind were injected:
// delays, pre-send errors, dropped responses, truncations.
func (c *ChaosTransport) Injected() (delays, errors, drops, truncations uint64) {
	return c.injectedDelays.Load(), c.injectedErrors.Load(), c.injectedDrops.Load(), c.injectedTruncations.Load()
}

// RoundTripRawCtx implements Transport, injecting this call's
// pre-drawn faults around the inner transport. On any injected failure
// resp is restored to its pre-call length, matching the HTTP transport's
// error contract.
func (c *ChaosTransport) RoundTripRawCtx(ctx context.Context, endpoint, action string, req *Envelope, resp *bytes.Buffer) error {
	p := c.plan()
	mark := resp.Len()
	if p.delay > 0 {
		c.injectedDelays.Add(1)
		t := time.NewTimer(p.delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if p.preErr {
		c.injectedErrors.Add(1)
		return fmt.Errorf("soap: post %s: connection refused: %w", endpoint, ErrInjected)
	}
	if err := c.Inner.RoundTripRawCtx(ctx, endpoint, action, req, resp); err != nil {
		return err
	}
	if p.drop {
		c.injectedDrops.Add(1)
		resp.Truncate(mark)
		return fmt.Errorf("soap: read response from %s: connection reset: %w", endpoint, ErrInjected)
	}
	if p.truncate {
		c.injectedTruncations.Add(1)
		n := resp.Len() - mark
		resp.Truncate(mark + int(p.truncAt*float64(n)))
	}
	return nil
}
