package soap

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xmlutil"
)

// streamCases enumerate the envelope shapes the portal wire carries, each
// built by the streamed WireEnvelope.
func streamCases() map[string]*Envelope {
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

	withHeader := (&Call{ServiceNS: "urn:svc", Method: "secure", Params: []Value{Str("p", "v")}}).WireEnvelope()
	withHeader.AddHeader(xmlutil.NewNS("urn:saml", "Assertion").SetAttr("id", "a-1"))

	empty := &Response{ServiceNS: "urn:bench", Method: "void"}

	// An interceptor-style AddBody after envelope construction must ship
	// on the wire after the streamed entry.
	addBody := (&Call{ServiceNS: "urn:svc", Method: "op", Params: []Value{Str("p", "v")}}).WireEnvelope()
	addBody.AddBody(xmlutil.New("extraEntry").AddText("k", "v"))

	return map[string]*Envelope{
		"call":         call.WireEnvelope(),
		"response":     resp.WireEnvelope(),
		"fault":        fault.WireEnvelope(),
		"portal-fault": portal.WireEnvelope(),
		"with-header":  withHeader,
		"empty-return": empty.WireEnvelope(),
		"added-body":   addBody,
	}
}

var update = flag.Bool("update", false, "rewrite the golden envelopes under testdata/")

// TestWireEnvelopeMatchesGolden pins every streamCases envelope to its
// golden under testdata/, and requires each to parse back as an envelope.
// Regenerate after an intentional format change with:
//
//	go test ./internal/soap -run TestWireEnvelopeMatchesGolden -update
func TestWireEnvelopeMatchesGolden(t *testing.T) {
	for name, env := range streamCases() {
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			env.AppendTo(&got)
			path := filepath.Join("testdata", name+".xml")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (re-run with -update): %v", path, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("envelope diverges from %s\n got: %s\nwant: %s", path, got.Bytes(), want)
			}
			if _, err := ParseEnvelopeBytes(got.Bytes()); err != nil {
				t.Errorf("envelope does not re-parse: %v", err)
			}
		})
	}
}

func TestStreamedFaultDetection(t *testing.T) {
	// isFault reports whether env, once rendered, parses back as a fault.
	isFault := func(env *Envelope) bool {
		parsed, err := ParseEnvelopeBytes([]byte(env.Render()))
		if err != nil {
			t.Fatalf("streamed envelope does not re-parse: %v", err)
		}
		_, rerr := ParseResponse(parsed)
		return AsFault(rerr) != nil
	}
	if !isFault((&Response{Fault: &Fault{Code: FaultClient, String: "bad"}}).WireEnvelope()) {
		t.Fatal("streamed fault envelope not detected as fault")
	}
	if isFault((&Response{ServiceNS: "urn:x", Method: "m"}).WireEnvelope()) {
		t.Fatal("streamed success envelope misdetected as fault")
	}
	if !isFault(FaultEnvelope(errors.New("kaput"), FaultServer)) {
		t.Fatal("FaultEnvelope result not detected as fault")
	}
}

// TestFaultEnvelopeRelay pins that the streamed fault conversion keeps the
// three historic behaviours: direct *Fault passthrough, portal-error
// relay in the detail, and generic wrapping.
func TestFaultEnvelopeRelay(t *testing.T) {
	direct := FaultEnvelope(&Fault{Code: FaultClient, String: "direct"}, FaultServer)
	var b bytes.Buffer
	direct.AppendTo(&b)
	if !strings.Contains(b.String(), "soap:Client") {
		t.Fatalf("direct fault lost its code: %s", b.String())
	}

	pe := NewPortalError("Globusrun", ErrCodeJobFailed, "job died")
	relayed := FaultEnvelope(error(pe), FaultServer)
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

	generic := FaultEnvelope(errors.New("kaput"), FaultServer)
	b.Reset()
	generic.AppendTo(&b)
	if !strings.Contains(b.String(), "soap:Server") || !strings.Contains(b.String(), "kaput") {
		t.Fatalf("generic fault wrong: %s", b.String())
	}
}

func TestRawTransportLoopback(t *testing.T) {
	lb := &LoopbackTransport{Serve: serveEnvelope(func(req *Envelope) (*Envelope, error) {
		call, err := ParseCall(req)
		if err != nil {
			return nil, err
		}
		return (&Response{ServiceNS: call.ServiceNS, Method: call.Method,
			Returns: []Value{Str("echo", Args(call.Params).String("msg"))}}).WireEnvelope(), nil
	})}
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
