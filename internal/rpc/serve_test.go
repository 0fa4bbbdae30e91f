package rpc

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// TestUnparseableRequestSameFaultEveryTransport pins that a request the
// server cannot parse gets one answer however it arrives. A string
// parameter holding U+0001 (a character XML 1.0 cannot carry) is rejected
// by the parser; HTTP, the provider's loopback and the server transport
// must all return the same Client fault bytes, and the client must treat
// that fault as definitive: no retry, even for an idempotent operation,
// and no failure counted against the endpoint's breaker.
func TestUnparseableRequestSameFaultEveryTransport(t *testing.T) {
	def := &Def{
		Name: "Echo",
		NS:   "urn:test:echo",
		Ops: []Op{{
			Name:       "echo",
			Idempotent: true,
			In:         []wsdl.Param{Str("s")},
			Out:        []wsdl.Param{Str("s")},
			Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
				return Ret(in.Str("s")), nil
			},
		}},
	}
	srv := NewServer("test", "loopback://test")
	p := srv.Provider("")
	p.MustRegister(def.MustBuild())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	call := &soap.Call{ServiceNS: def.NS, Method: "echo", Params: []soap.Value{soap.Str("s", "a\x01b")}}
	action := def.NS + "#echo"
	cases := []struct {
		name      string
		transport soap.Transport
		endpoint  string
	}{
		{"http", &soap.HTTPTransport{Client: hs.Client()}, hs.URL + "/Echo"},
		{"provider-loopback", p.Loopback(), "loopback://test/Echo"},
		{"server-transport", srv.Transport(), "loopback://test/Echo"},
	}
	var want []byte
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var raw bytes.Buffer
			err := tc.transport.RoundTripRawCtx(context.Background(), tc.endpoint, action, call.WireEnvelope(), &raw)
			switch {
			case err != nil:
				t.Errorf("round trip failed instead of answering with a fault: %v", err)
			case want == nil:
				want = bytes.Clone(raw.Bytes())
			case !bytes.Equal(raw.Bytes(), want):
				t.Errorf("fault bytes differ from %s\n got: %s\nwant: %s", cases[0].name, raw.Bytes(), want)
			}

			retry := &resilience.RetryPolicy{MaxAttempts: 3, Seed: 1,
				Backoff: resilience.Backoff{Base: 1, Max: 1}}
			breakers := &resilience.BreakerSet{Config: resilience.BreakerConfig{FailureThreshold: 3}}
			cl := core.NewClient(tc.transport, tc.endpoint, def.Interface())
			cl.Retry, cl.Breakers = retry, breakers
			_, err = cl.CallText("echo", soap.Str("s", "a\x01b"))
			f := soap.AsFault(err)
			if f == nil || f.Code != soap.FaultClient {
				t.Errorf("err = %v (%T), want a Client fault", err, err)
			}
			if n := retry.Retries(); n != 0 {
				t.Errorf("client retried %d times", n)
			}
			if bs := breakers.For(tc.endpoint).Snapshot(); bs.State != "closed" || bs.ConsecutiveFails != 0 {
				t.Errorf("breaker %s with %d failures counted after a fault, want closed with none",
					bs.State, bs.ConsecutiveFails)
			}
		})
	}
}

// TestFastAndTreePathsSeeSameContext pins that middleware cannot tell the
// streaming reader from the tree dispatch it replaced (TreeOracle): for
// the same call both hand it the same operation, namespace and principal,
// and a request envelope without headers.
func TestFastAndTreePathsSeeSameContext(t *testing.T) {
	def := &Def{
		Name: "Echo",
		NS:   "urn:test:echo",
		Ops: []Op{{
			Name: "echo",
			In:   []wsdl.Param{Str("s")},
			Out:  []wsdl.Param{Str("s")},
			Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
				return Ret(in.Str("s")), nil
			},
		}},
	}
	seen := func(tree bool) core.Context {
		var got core.Context
		p := core.NewProvider("ctx-ssp", "loopback://ctx")
		serve := p.Serve
		if tree {
			serve = NewTreeOracle(p).Serve
		}
		p.Use(func(next core.HandlerFunc) core.HandlerFunc {
			return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
				ctx.Principal = "cyoun"
				return next(ctx, args)
			}
		})
		p.Use(func(next core.HandlerFunc) core.HandlerFunc {
			return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
				got = core.Context{Operation: ctx.Operation, ServiceNS: ctx.ServiceNS,
					Principal: ctx.Principal}
				if len(ctx.Envelope.Header) == 0 {
					got.Envelope = ctx.Envelope
				}
				return next(ctx, args)
			}
		})
		p.MustRegister(def.MustBuild())
		cl := core.NewClient(&soap.LoopbackTransport{Serve: serve}, "loopback://ctx/Echo", def.Interface())
		if s, err := cl.CallText("echo", soap.Str("s", "hi")); err != nil || s != "hi" {
			t.Fatalf("tree=%v: echo = %q, %v", tree, s, err)
		}
		return got
	}
	fast, tree := seen(false), seen(true)
	if fast.Operation != "echo" || fast.Operation != tree.Operation ||
		fast.ServiceNS != def.NS || fast.ServiceNS != tree.ServiceNS ||
		fast.Principal != "cyoun" || fast.Principal != tree.Principal {
		t.Errorf("streaming reader saw %+v, tree dispatch %+v", fast, tree)
	}
	for name, c := range map[string]core.Context{"fast": fast, "tree": tree} {
		if c.Envelope == nil {
			t.Errorf("%s path: no request envelope, or one with headers", name)
		}
	}
}
