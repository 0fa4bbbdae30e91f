package rpc

import (
	"bytes"
	"context"

	"repro/internal/core"
	"repro/internal/soap"
)

// TreeOracle answers requests with the tree dispatch Provider.Serve ran
// before the streaming reader became its only decoder: the element tree
// parse, ParseCall and ParseValue decode the request and decide its
// parse and structural faults, and the provider then routes, runs and
// encodes it. FuzzStreamVsTreeDispatch and the golden suite hold Serve to
// it, as FuzzParseRoundTrip holds the tree parser to encoding/xml.
type TreeOracle struct{ p *core.Provider }

type treeRequestKey struct{}

type treeRequest struct {
	env    *soap.Envelope
	params []soap.Value
}

// NewTreeOracle makes p answer through the oracle. It installs p's
// outermost middleware, which hands the chain the tree-decoded envelope
// and arguments, so it must precede every other Use on p.
func NewTreeOracle(p *core.Provider) *TreeOracle {
	p.Use(func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			if tr, ok := ctx.Context().Value(treeRequestKey{}).(*treeRequest); ok {
				ctx.Envelope, args = tr.env, tr.params
			}
			return next(ctx, args)
		}
	})
	return &TreeOracle{p}
}

// Serve is the oracle's soap.ServeFunc.
func (o *TreeOracle) Serve(ctx context.Context, body []byte, out *bytes.Buffer) error {
	env, err := soap.ParseEnvelopeBytes(body)
	if err != nil {
		soap.FaultEnvelope(err, soap.FaultClient).AppendTo(out)
		return err
	}
	call, err := soap.ParseCall(env)
	if err != nil {
		soap.FaultEnvelope(err, soap.FaultServer).AppendTo(out)
		return err
	}
	// The provider routes a stand-in request for the same operation; the
	// oracle's middleware swaps the tree decode in before the chain runs.
	var stand bytes.Buffer
	(&soap.Call{ServiceNS: call.ServiceNS, Method: call.Method}).WireEnvelope().AppendTo(&stand)
	ctx = context.WithValue(ctx, treeRequestKey{}, &treeRequest{env: env, params: call.Params})
	return o.p.Serve(ctx, stand.Bytes(), out)
}
