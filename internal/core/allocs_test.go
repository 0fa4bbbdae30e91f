package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/soap"
	"repro/internal/xmlutil"
)

// serveAllocs is the budget of allocations per Provider.Serve call of each
// request shape, which TestServeAllocs enforces: a flat echo, whose
// parameters the streaming reader decodes without a tree; a literal-XML
// parameter and a SAML-style header entry, the two shapes it carves into a
// pooled arena.
var serveAllocs = []struct {
	name    string
	call    soap.Call
	header  *xmlutil.Element
	allocs  float64
	wantOut string
}{
	{"flat", soap.Call{ServiceNS: "urn:test:echo", Method: "say", Params: []soap.Value{soap.Str("msg", "hello")}}, nil, 2, ">hello<"},
	{"xml", soap.Call{ServiceNS: "urn:test:echo", Method: "say", Params: []soap.Value{soap.XMLDoc("msg", xmlutil.New("doc").AddText("q", "x"))}}, nil, 3, "sayResponse"},
	{"header", soap.Call{ServiceNS: "urn:test:echo", Method: "say", Params: []soap.Value{soap.Str("msg", "hello")}},
		xmlutil.NewNS("urn:oasis:names:tc:SAML:1.0:assertion", "Assertion").SetAttr("Issuer", "authsvc"), 3, ">hello<"},
}

// TestServeAllocs holds Provider.Serve to its allocation budget on each
// request path.
func TestServeAllocs(t *testing.T) {
	p := NewProvider("test-ssp", "loopback://ssp")
	p.MustRegister(echoService())
	for _, c := range serveAllocs {
		t.Run(c.name, func(t *testing.T) {
			var req, out bytes.Buffer
			env := c.call.WireEnvelope()
			if c.header != nil {
				env.AddHeader(c.header)
			}
			env.AppendTo(&req)
			allocbudget.Check(t, c.allocs, func() {
				out.Reset()
				if err := p.Serve(context.Background(), req.Bytes(), &out); err != nil {
					t.Fatalf("%v: %s", err, out.Bytes())
				}
			})
			if !bytes.Contains(out.Bytes(), []byte(c.wantOut)) {
				t.Fatalf("answer %s lacks %s", out.Bytes(), c.wantOut)
			}
		})
	}
}

// bodyTransport answers every round trip with a fixed response body.
type bodyTransport struct{ body []byte }

func (t *bodyTransport) RoundTripRawCtx(_ context.Context, _, _ string, _ *soap.Envelope, resp *bytes.Buffer) error {
	resp.Write(t.body)
	return nil
}

// callAllocs is the budget of allocations per Client.Call of each answer
// shape, which TestCallAllocs enforces: a flat scalar return, a literal-XML
// return, and a fault carrying a portal error.
var callAllocs = []struct {
	name   string
	resp   soap.Response
	allocs float64
}{
	{"flat", soap.Response{ServiceNS: "urn:test:echo", Method: "say", Returns: []soap.Value{soap.Str("echo", "hello")}}, 5},
	{"xml", soap.Response{ServiceNS: "urn:test:echo", Method: "say", Returns: []soap.Value{soap.XMLDoc("echo", xmlutil.New("doc").AddText("q", "x"))}}, 7},
	{"fault", soap.Response{Fault: soap.NewPortalError("Echo", soap.ErrCodeResourceFull, "disk full").Fault()}, 12},
}

// TestCallAllocs holds Client.Call, the decode of each answer shape
// included, to its allocation budget over a transport that does no work.
func TestCallAllocs(t *testing.T) {
	for _, c := range callAllocs {
		t.Run(c.name, func(t *testing.T) {
			cl := NewClient(&bodyTransport{body: []byte(c.resp.WireEnvelope().Render())}, "fixed://echo", echoContract())
			allocbudget.Check(t, c.allocs, func() {
				resp, release, err := cl.Call(context.Background(), "say", soap.Str("msg", "hi"))
				if (err != nil) != (c.resp.Fault != nil) || err == nil && len(resp.Returns) != 1 {
					t.Fatalf("answer %+v, %v", resp, err)
				}
				release()
			})
		})
	}
}
