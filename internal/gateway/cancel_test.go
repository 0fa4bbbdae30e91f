package gateway_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// counterDef is a single non-idempotent write that counts its executions.
func counterDef(n *atomic.Int64) *rpc.Def {
	return &rpc.Def{
		Name: "Counter", NS: "urn:test:counter",
		Ops: []rpc.Op{{
			Name: "bump", Out: []wsdl.Param{rpc.Str("ok")},
			Handle: func(_ *core.Context, _ rpc.Args) ([]interface{}, error) {
				n.Add(1)
				return rpc.Ret("ok"), nil
			},
		}},
	}
}

// TestCancelledContextNeverDispatches: a call made under an already
// cancelled context must fail with context.Canceled without running the
// handler, on every transport — the in-process ones included, which must
// not behave differently from HTTP.
func TestCancelledContextNeverDispatches(t *testing.T) {
	var n atomic.Int64
	srv, ts := newBackend(t, "counter", func(srv *rpc.Server) {
		srv.Provider("").MustRegister(counterDef(&n).MustBuild())
	})
	gw := gateway.New("gw", "http://gw.local")
	if err := gw.Mount(ts.URL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	cases := []struct {
		name     string
		tr       soap.Transport
		endpoint string
	}{
		{"http", &soap.HTTPTransport{}, ts.URL + "/Counter"},
		{"server", srv.Transport(), ts.URL + "/Counter"},
		{"gateway", gw.Loopback(), "http://gw.local/Counter"},
		{"chaos", &soap.ChaosTransport{Inner: srv.Transport(), Seed: 1}, ts.URL + "/Counter"},
	}
	iface := counterDef(&n).Interface()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The transport works under a live context.
			cl := core.NewClient(tc.tr, tc.endpoint, iface)
			before := n.Load()
			if _, err := cl.CallText("bump"); err != nil {
				t.Fatalf("live call: %v", err)
			}
			if got := n.Load() - before; got != 1 {
				t.Fatalf("live call ran the handler %d times, want 1", got)
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			before = n.Load()
			_, release, err := cl.Call(ctx, "bump")
			release()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled call: err = %v, want context.Canceled", err)
			}
			if got := n.Load() - before; got != 0 {
				t.Errorf("cancelled call ran the handler %d times, want 0", got)
			}
		})
	}
}
