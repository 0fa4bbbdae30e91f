package soap

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/xmlutil"
)

// streamCases enumerate the envelope shapes the portal wire carries; each
// must serialise byte-identically through the streamed (tree-free) path
// and the element-tree path.
func streamCases() map[string]struct{ tree, stream *Envelope } {
	call := &Call{ServiceNS: "urn:bench", Method: "op", Params: []Value{
		Str("a", "hello & <world>"),
		Int("b", 42),
		Bool("c", true),
		StrArray("items", []string{"x", "y", `"quoted"`}),
		XMLDoc("doc", xmlutil.New("payload").SetAttr("k", "v").AddText("leaf", "text")),
		{Name: "untyped", Text: "plain"},
	}}

	resp := &Response{ServiceNS: "urn:bench", Method: "op", Returns: []Value{
		Str("result", "done"),
		StrArray("names", []string{"a", "b"}),
		XMLDoc("tree", xmlutil.NewNS("urn:payload", "root").AddTextNS("urn:payload", "item", "1")),
	}}

	fault := &Response{Fault: &Fault{Code: FaultServer, String: "boom & <bust>", Actor: "urn:actor"}}

	portal := &Response{Fault: NewPortalError("SRBService", ErrCodeResourceFull, "disk full").Fault()}

	withHeader := &Call{ServiceNS: "urn:svc", Method: "secure", Params: []Value{Str("p", "v")}}
	hdrTree := withHeader.Envelope()
	hdrTree.AddHeader(xmlutil.NewNS("urn:saml", "Assertion").SetAttr("id", "a-1"))
	hdrStream := withHeader.WireEnvelope()
	hdrStream.AddHeader(xmlutil.NewNS("urn:saml", "Assertion").SetAttr("id", "a-1"))

	empty := &Response{ServiceNS: "urn:bench", Method: "void"}

	// An interceptor-style AddBody after envelope construction must ship
	// on the wire from both paths.
	addBody := &Call{ServiceNS: "urn:svc", Method: "op", Params: []Value{Str("p", "v")}}
	abTree := addBody.Envelope()
	abTree.AddBody(xmlutil.New("extraEntry").AddText("k", "v"))
	abStream := addBody.WireEnvelope()
	abStream.AddBody(xmlutil.New("extraEntry").AddText("k", "v"))

	return map[string]struct{ tree, stream *Envelope }{
		"call":         {call.Envelope(), call.WireEnvelope()},
		"response":     {resp.Envelope(), resp.WireEnvelope()},
		"fault":        {fault.Envelope(), fault.WireEnvelope()},
		"portal-fault": {portal.Envelope(), portal.WireEnvelope()},
		"with-header":  {hdrTree, hdrStream},
		"empty-return": {empty.Envelope(), empty.WireEnvelope()},
		"added-body":   {abTree, abStream},
	}
}

func TestWireEnvelopeMatchesTreePath(t *testing.T) {
	for name, c := range streamCases() {
		var tree, stream bytes.Buffer
		c.tree.AppendTo(&tree)
		c.stream.AppendTo(&stream)
		if tree.String() != stream.String() {
			t.Errorf("%s: streamed envelope differs from tree path\nstream: %s\ntree:   %s",
				name, stream.String(), tree.String())
		}
		// Whatever was streamed must parse back as a well-formed envelope.
		if _, err := ParseEnvelopeBytes(stream.Bytes()); err != nil {
			t.Errorf("%s: streamed envelope does not re-parse: %v", name, err)
		}
	}
}

func TestStreamedFaultDetection(t *testing.T) {
	f := (&Response{Fault: &Fault{Code: FaultClient, String: "bad"}}).WireEnvelope()
	if !isFaultEnvelope(f) {
		t.Fatal("streamed fault envelope not detected as fault")
	}
	ok := (&Response{ServiceNS: "urn:x", Method: "m"}).WireEnvelope()
	if isFaultEnvelope(ok) {
		t.Fatal("streamed success envelope misdetected as fault")
	}
	if !isFaultEnvelope(faultEnvelope(errors.New("kaput"), FaultServer)) {
		t.Fatal("faultEnvelope result not detected as fault")
	}
}

// TestFaultEnvelopeRelay pins that the streamed fault conversion keeps the
// three historic behaviours: direct *Fault passthrough, portal-error
// relay in the detail, and generic wrapping.
func TestFaultEnvelopeRelay(t *testing.T) {
	direct := faultEnvelope(&Fault{Code: FaultClient, String: "direct"}, FaultServer)
	var b bytes.Buffer
	direct.AppendTo(&b)
	if !strings.Contains(b.String(), "soap:Client") {
		t.Fatalf("direct fault lost its code: %s", b.String())
	}

	pe := NewPortalError("Globusrun", ErrCodeJobFailed, "job died")
	relayed := faultEnvelope(error(pe), FaultServer)
	b.Reset()
	relayed.AppendTo(&b)
	env, err := ParseEnvelopeBytes(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := ParseResponse(env)
	var f *Fault
	if !errors.As(rerr, &f) {
		t.Fatalf("expected fault error, got %v", rerr)
	}
	got := f.PortalError()
	if got == nil || got.Code != ErrCodeJobFailed || got.Service != "Globusrun" {
		t.Fatalf("portal error not relayed: %+v", got)
	}

	generic := faultEnvelope(errors.New("kaput"), FaultServer)
	b.Reset()
	generic.AppendTo(&b)
	if !strings.Contains(b.String(), "soap:Server") || !strings.Contains(b.String(), "kaput") {
		t.Fatalf("generic fault wrong: %s", b.String())
	}
}

func TestRawTransportLoopback(t *testing.T) {
	lb := &LoopbackTransport{Handler: func(_ context.Context, req *Envelope, _ *http.Request) (*Envelope, error) {
		call, err := ParseCall(req)
		if err != nil {
			return nil, err
		}
		return (&Response{ServiceNS: call.ServiceNS, Method: call.Method,
			Returns: []Value{Str("echo", Args(call.Params).String("msg"))}}).WireEnvelope(), nil
	}}
	call := &Call{ServiceNS: "urn:raw", Method: "say", Params: []Value{Str("msg", "hi")}}

	// Raw and parsed round trips must agree on the wire bytes.
	var raw bytes.Buffer
	if err := lb.RoundTripRawCtx(context.Background(), "x", "urn:raw#say", call.WireEnvelope(), &raw); err != nil {
		t.Fatal(err)
	}
	env, err := RoundTripEnvelope(context.Background(), lb, "x", "urn:raw#say", call.WireEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	var reRendered bytes.Buffer
	env.AppendTo(&reRendered)
	if raw.String() != reRendered.String() {
		t.Fatalf("raw bytes differ from reparsed envelope:\nraw: %s\nre:  %s", raw.String(), reRendered.String())
	}
	resp, err := ParseResponse(env)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ReturnText("echo") != "hi" {
		t.Fatalf("echo = %q", resp.ReturnText("echo"))
	}
}
