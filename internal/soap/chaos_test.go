package soap

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// chaosEcho is a loopback inner transport answering every request with a
// fixed, parseable envelope.
func chaosEcho() *LoopbackTransport {
	return &LoopbackTransport{Serve: func(_ context.Context, _ []byte, out *bytes.Buffer) error {
		resp := &Response{Method: "echo", ServiceNS: "urn:test:chaos",
			Returns: []Value{Str("s", "ok")}}
		resp.WireEnvelope().AppendTo(out)
		return nil
	}}
}

// TestChaosTransportDeterminism: two transports with the same seed must
// draw the same per-call fate sequence — the reproducibility every chaos
// run depends on.
func TestChaosTransportDeterminism(t *testing.T) {
	mk := func() *ChaosTransport {
		return &ChaosTransport{
			Inner:        chaosEcho(),
			Seed:         99,
			ErrorRate:    0.3,
			DropRate:     0.2,
			TruncateRate: 0.2,
		}
	}
	a, b := mk(), mk()
	call := &Call{ServiceNS: "urn:test:chaos", Method: "echo", Params: []Value{Str("s", "x")}}
	for i := 0; i < 300; i++ {
		var ra, rb bytes.Buffer
		ea := a.RoundTripRawCtx(context.Background(), "loop://a", "urn:test:chaos#echo", call.WireEnvelope(), &ra)
		eb := b.RoundTripRawCtx(context.Background(), "loop://b", "urn:test:chaos#echo", call.WireEnvelope(), &rb)
		if (ea == nil) != (eb == nil) || !bytes.Equal(ra.Bytes(), rb.Bytes()) {
			t.Fatalf("call %d diverged: err %v vs %v, %d vs %d bytes", i, ea, eb, ra.Len(), rb.Len())
		}
	}
	da, ea2, dra, ta := a.Injected()
	db, eb2, drb, tb := b.Injected()
	if da != db || ea2 != eb2 || dra != drb || ta != tb {
		t.Fatalf("injection counters diverged: (%d %d %d %d) vs (%d %d %d %d)",
			da, ea2, dra, ta, db, eb2, drb, tb)
	}
	if ea2 == 0 || dra == 0 || ta == 0 {
		t.Fatalf("rates did not fire over 300 calls: errors=%d drops=%d truncations=%d", ea2, dra, ta)
	}
}

// TestChaosTransportErrorShapes: injected failures are marked ErrInjected,
// dropped responses leave the buffer at its pre-call length, truncations
// shorten but keep a non-nil error-free result.
func TestChaosTransportErrorShapes(t *testing.T) {
	call := &Call{ServiceNS: "urn:test:chaos", Method: "echo", Params: []Value{Str("s", "x")}}

	pre := &ChaosTransport{Inner: chaosEcho(), Seed: 1, ErrorRate: 1}
	var buf bytes.Buffer
	buf.WriteString("sentinel")
	err := pre.RoundTripRawCtx(context.Background(), "loop://x", "a#b", call.WireEnvelope(), &buf)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("pre-send error = %v, want ErrInjected", err)
	}
	if buf.String() != "sentinel" {
		t.Fatalf("pre-send error disturbed the response buffer: %q", buf.String())
	}

	drop := &ChaosTransport{Inner: chaosEcho(), Seed: 1, DropRate: 1}
	buf.Reset()
	buf.WriteString("sentinel")
	err = drop.RoundTripRawCtx(context.Background(), "loop://x", "a#b", call.WireEnvelope(), &buf)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("drop error = %v, want ErrInjected", err)
	}
	if buf.String() != "sentinel" {
		t.Fatalf("dropped response left bytes behind: %q", buf.String())
	}

	trunc := &ChaosTransport{Inner: chaosEcho(), Seed: 1, TruncateRate: 1}
	var whole, torn bytes.Buffer
	if err := chaosEcho().RoundTripRawCtx(context.Background(), "loop://x", "a#b", call.WireEnvelope(), &whole); err != nil {
		t.Fatal(err)
	}
	if err := trunc.RoundTripRawCtx(context.Background(), "loop://x", "a#b", call.WireEnvelope(), &torn); err != nil {
		t.Fatalf("truncation must not itself error: %v", err)
	}
	if torn.Len() >= whole.Len() {
		t.Fatalf("truncated response not shorter: %d vs %d bytes", torn.Len(), whole.Len())
	}
}

// TestChaosTransportLatencyHonoursContext: an injected delay is abandoned
// when the caller's context expires first.
func TestChaosTransportLatencyHonoursContext(t *testing.T) {
	slow := &ChaosTransport{Inner: chaosEcho(), Seed: 1, LatencyRate: 1, MaxLatency: 10 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	call := &Call{ServiceNS: "urn:test:chaos", Method: "echo", Params: []Value{Str("s", "x")}}
	var buf bytes.Buffer
	start := time.Now()
	err := slow.RoundTripRawCtx(ctx, "loop://x", "a#b", call.WireEnvelope(), &buf)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("delay not abandoned on context expiry (%v)", time.Since(start))
	}
}
