package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/saml"
	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/wsil"
	"repro/internal/xmlutil"
)

// typedDef exercises every parameter type the kernel bridges: the handler
// receives decoded values and returns raw Go values for the kernel to
// encode.
func typedDef() *Def {
	return &Def{
		Name: "TypedEcho",
		NS:   "urn:test:typedecho",
		Doc:  "kernel codec exercise",
		Ops: []Op{
			{
				Name: "describe",
				Doc:  "echoes every typed parameter back",
				In:   []wsdl.Param{Str("s"), Int("n"), Bool("b"), Strs("list"), XML("doc")},
				Out:  []wsdl.Param{Str("summary"), Int("doubled"), Bool("negated"), Strs("upper"), XML("wrapped")},
				Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
					upper := make([]string, 0, len(in.Strings("list")))
					for _, s := range in.Strings("list") {
						upper = append(upper, strings.ToUpper(s))
					}
					wrapped := xmlutil.New("wrapped")
					if d := in.XML("doc"); d != nil {
						wrapped.Add(d)
					}
					summary := fmt.Sprintf("%s/%d/%v", in.Str("s"), in.Int("n"), in.Bool("b"))
					return Ret(summary, in.Int("n")*2, !in.Bool("b"), upper, wrapped), nil
				},
			},
			{
				Name: "boom",
				Out:  []wsdl.Param{Str("never")},
				Handle: func(_ *core.Context, _ Args) ([]interface{}, error) {
					panic("kaboom")
				},
			},
		},
	}
}

func typedCall(t *testing.T, cl *core.Client) {
	t.Helper()
	resp, release, err := cl.Call(context.Background(), "describe",
		soap.Str("s", "hi"), soap.Int("n", 21), soap.Bool("b", false),
		soap.StrArray("list", []string{"a", "b"}),
		soap.XMLDoc("doc", xmlutil.NewText("inner", "payload")))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got := resp.ReturnText("summary"); got != "hi/21/false" {
		t.Errorf("summary = %q", got)
	}
	if got := resp.ReturnText("doubled"); got != "42" {
		t.Errorf("doubled = %q", got)
	}
	if got := resp.ReturnText("negated"); got != "true" {
		t.Errorf("negated = %q", got)
	}
	v, ok := resp.Return("upper")
	if !ok || len(v.Items) != 2 || v.Items[0].Text != "A" || v.Items[1].Text != "B" {
		t.Errorf("upper = %+v", v)
	}
	w, ok := resp.Return("wrapped")
	if !ok || w.XML == nil || w.XML.FindText("inner") != "payload" {
		t.Errorf("wrapped = %+v", w)
	}
}

// TestTypedRoundTripLoopback drives the descriptor end to end over the
// in-process transport.
func TestTypedRoundTripLoopback(t *testing.T) {
	srv := NewServer("test", "loopback://test")
	srv.Provider("").MustRegister(typedDef().MustBuild())
	cl := core.NewClient(srv.Transport(), "loopback://test/TypedEcho", typedDef().Interface())
	typedCall(t, cl)
}

// TestTypedRoundTripHTTP drives the same descriptor over real HTTP,
// binding dynamically from the WSDL the server publishes on GET ?wsdl.
func TestTypedRoundTripHTTP(t *testing.T) {
	srv := NewServer("test", "placeholder")
	srv.Provider("").MustRegister(typedDef().MustBuild())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.SetBaseURL(hs.URL)

	tr := &soap.HTTPTransport{Client: hs.Client()}
	cl, err := core.BindURL(tr, hs.Client(), hs.URL+"/TypedEcho?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	if cl.Endpoint != hs.URL+"/TypedEcho" {
		t.Errorf("bound endpoint = %q", cl.Endpoint)
	}
	typedCall(t, cl)
}

// TestWSDLSemanticEquivalence verifies the published WSDL round-trips to
// an interface compatible (both directions) with the descriptor-derived
// contract — the equivalence the migration must preserve.
func TestWSDLSemanticEquivalence(t *testing.T) {
	srv := NewServer("test", "http://host:1")
	srv.Provider("").MustRegister(typedDef().MustBuild())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.SetBaseURL(hs.URL)

	resp, err := hs.Client().Get(hs.URL + "/TypedEcho?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	parsed, err := wsdl.Parse(string(body))
	if err != nil {
		t.Fatal(err)
	}
	agreed := typedDef().Interface()
	if problems := wsdl.CheckCompatible(agreed, parsed.Interface); len(problems) > 0 {
		t.Errorf("published WSDL incompatible with descriptor: %v", problems)
	}
	if problems := wsdl.CheckCompatible(parsed.Interface, agreed); len(problems) > 0 {
		t.Errorf("descriptor incompatible with published WSDL: %v", problems)
	}
	if parsed.Endpoint != hs.URL+"/TypedEcho" {
		t.Errorf("endpoint = %q", parsed.Endpoint)
	}
}

// TestMalformedParamRejected verifies the kernel's databind validation:
// a non-integer value for a declared int parameter is a BadRequest portal
// error before the handler runs.
func TestMalformedParamRejected(t *testing.T) {
	srv := NewServer("test", "loopback://test")
	srv.Provider("").MustRegister(typedDef().MustBuild())
	cl := core.NewClient(srv.Transport(), "loopback://test/TypedEcho", typedDef().Interface())
	cl.Strict = false // let the malformed value reach the server
	_, err := cl.CallText("describe",
		soap.Str("s", "hi"), soap.Value{Name: "n", Type: "int", Text: "not-a-number"},
		soap.Bool("b", false), soap.StrArray("list", nil),
		soap.XMLDoc("doc", xmlutil.New("inner")))
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeBadRequest {
		t.Errorf("err = %v, want BadRequest portal error", err)
	}
}

// TestPanicBecomesServerFault verifies the recovery middleware the server
// installs on every provider: a panicking handler surfaces as a SOAP
// Server fault, and the provider keeps serving.
func TestPanicBecomesServerFault(t *testing.T) {
	srv := NewServer("test", "loopback://test")
	srv.Provider("").MustRegister(typedDef().MustBuild())
	cl := core.NewClient(srv.Transport(), "loopback://test/TypedEcho", typedDef().Interface())

	_, err := cl.CallText("boom")
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != soap.FaultServer || !strings.Contains(f.String, "boom") {
		t.Fatalf("err = %v, want Server fault naming the operation", err)
	}
	// The provider survived the panic.
	typedCall(t, cl)
}

// deniedVerifier rejects every assertion.
type deniedVerifier struct{}

func (deniedVerifier) Verify(*saml.Assertion) (string, error) {
	return "", errors.New("no such session")
}

// TestAuthDeniedIsClientFault verifies fault relay through the auth
// middleware: a request without (or with a rejected) assertion yields a
// Client fault carrying the portal AuthenticationFailed detail.
func TestAuthDeniedIsClientFault(t *testing.T) {
	srv := NewServer("test", "loopback://test")
	srv.Provider("", RequireAssertion(deniedVerifier{})).MustRegister(typedDef().MustBuild())
	cl := core.NewClient(srv.Transport(), "loopback://test/TypedEcho", typedDef().Interface())

	_, err := cl.CallText("boom")
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	if f.Code != soap.FaultClient {
		t.Errorf("fault code = %q, want Client", f.Code)
	}
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeAuthFailed {
		t.Errorf("portal error = %v, want AuthenticationFailed", pe)
	}

	// With a signed-looking assertion the verifier still rejects: same
	// Client fault, and the handler never ran (no panic surfaced).
	cl.Use(func(_ *soap.Call, env *soap.Envelope) error {
		a := saml.New("ui", "mock", saml.MethodKerberos, "sess-1", time.Now(), time.Minute)
		saml.Attach(env, a)
		return nil
	})
	_, err = cl.CallText("boom")
	if !errors.As(err, &f) || f.Code != soap.FaultClient {
		t.Errorf("rejected assertion: err = %v, want Client fault", err)
	}
}

// TestStatsAndHealthz verifies request counting and the health endpoint.
func TestStatsAndHealthz(t *testing.T) {
	srv := NewServer("test", "placeholder")
	srv.Provider("").MustRegister(typedDef().MustBuild())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.SetBaseURL(hs.URL)

	cl := core.NewClient(srv.Transport(), hs.URL+"/TypedEcho", typedDef().Interface())
	typedCall(t, cl)
	if _, err := cl.CallText("boom"); err == nil {
		t.Fatal("boom should fault")
	}

	snap := srv.Stats().Snapshot()
	if op := snap["urn:test:typedecho#describe"]; op.Count != 1 || op.Errors != 0 {
		t.Errorf("describe stats = %+v", op)
	}
	if op := snap["urn:test:typedecho#boom"]; op.Count != 1 || op.Errors != 1 {
		t.Errorf("boom stats = %+v", op)
	}
	// describe carries an xml-typed parameter, so it is tree-only; boom
	// has no parameters and decodes on the streaming fast path.
	if dec := srv.Stats().DecodeSnapshot(); dec.FastPath != 1 || dec.TreePath != 1 {
		t.Errorf("decode split = %+v, want FastPath:1 TreePath:1", dec)
	}

	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
		Decode struct {
			FastPath uint64 `json:"fastPath"`
			TreePath uint64 `json:"treePath"`
		} `json:"decode"`
		Operations []struct {
			Operation string `json:"operation"`
			Count     uint64 `json:"count"`
		} `json:"operations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || len(doc.Operations) != 2 {
		t.Errorf("healthz = %+v", doc)
	}
	if doc.Decode.FastPath != 1 || doc.Decode.TreePath != 1 {
		t.Errorf("healthz decode = %+v, want fastPath:1 treePath:1", doc.Decode)
	}
}

// TestWSILPublication verifies the server publishes a live inspection
// document for every mounted provider's services.
func TestWSILPublication(t *testing.T) {
	srv := NewServer("test", "placeholder")
	srv.Provider("/a").MustRegister(typedDef().MustBuild())
	other := &Def{Name: "Other", NS: "urn:test:other", Ops: []Op{{
		Name:   "noop",
		Handle: func(*core.Context, Args) ([]interface{}, error) { return nil, nil },
	}}}
	srv.Provider("/b").MustRegister(other.MustBuild())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.SetBaseURL(hs.URL)

	resp, err := hs.Client().Get(hs.URL + wsil.WellKnownPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	doc, err := wsil.Parse(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Services) != 2 {
		t.Fatalf("services = %+v", doc.Services)
	}
	wants := map[string]string{
		"TypedEcho": hs.URL + "/a/TypedEcho?wsdl",
		"Other":     hs.URL + "/b/Other?wsdl",
	}
	for _, s := range doc.Services {
		if wants[s.Name] != s.WSDLLocation {
			t.Errorf("service %s WSDL at %q, want %q", s.Name, s.WSDLLocation, wants[s.Name])
		}
	}
}

// TestTransportEndpointRouting verifies Transport(servers...) routes each
// call to the server mounting its endpoint and rejects unmounted ones.
func TestTransportEndpointRouting(t *testing.T) {
	a := NewServer("a", "loopback://a")
	a.Provider("").MustRegister(typedDef().MustBuild())
	b := NewServer("b", "loopback://b")
	b.Provider("").MustRegister(typedDef().MustBuild())
	tr := Transport(a, b)
	call := &soap.Call{ServiceNS: typedDef().NS, Method: "describe", Params: []soap.Value{
		soap.Str("s", "m"), soap.Int("n", 1), soap.Bool("b", true),
		soap.StrArray("list", nil), soap.XMLDoc("doc", xmlutil.New("d"))}}
	if _, err := soap.Invoke(context.Background(), tr, "loopback://c/TypedEcho", call); err == nil ||
		!strings.Contains(err.Error(), "no mounted provider") {
		t.Errorf("unmounted endpoint: err = %v", err)
	}
	resp, err := soap.Invoke(context.Background(), tr, "loopback://b/TypedEcho", call)
	if err != nil {
		t.Fatalf("routed endpoint failed: %v", err)
	}
	if got := resp.ReturnText("summary"); got != "m/1/true" {
		t.Errorf("summary = %q", got)
	}
	if na, nb := len(a.Stats().Snapshot()), len(b.Stats().Snapshot()); na != 0 || nb != 1 {
		t.Errorf("operations recorded: a=%d b=%d, want 0 and 1", na, nb)
	}
}

// TestConcurrencyLimit verifies LoadShed(1, q) admits callers one at a
// time when its queue holds every other caller, so none is shed.
func TestConcurrencyLimit(t *testing.T) {
	inFlight, peak := 0, 0
	probe := func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
			vals, err := next(ctx, args)
			inFlight--
			return vals, err
		}
	}
	srv := NewServer("test", "loopback://test")
	srv.Provider("", LoadShed(1, 8), probe).MustRegister(typedDef().MustBuild())
	cl := core.NewClient(srv.Transport(), "loopback://test/TypedEcho", typedDef().Interface())

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := cl.CallText("describe",
				soap.Str("s", "x"), soap.Int("n", 1), soap.Bool("b", true),
				soap.StrArray("list", nil), soap.XMLDoc("doc", xmlutil.New("d")))
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if peak != 1 {
		t.Errorf("peak concurrency = %d, want 1", peak)
	}
}

// TestBuildRejectsMissingHandler pins the descriptor completeness check.
func TestBuildRejectsMissingHandler(t *testing.T) {
	d := &Def{Name: "Broken", NS: "urn:test:broken", Ops: []Op{{Name: "ghost"}}}
	if _, err := d.Build(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("Build err = %v", err)
	}
}

// TestWSDLCachingAndContentLength: the rendered WSDL document is cached per
// service, served with Content-Length, and invalidated when the externally
// visible base URL is rewritten.
func TestWSDLCachingAndContentLength(t *testing.T) {
	srv := NewServer("test", "placeholder")
	srv.Provider("").MustRegister(typedDef().MustBuild())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.SetBaseURL(hs.URL)

	fetch := func() (string, string) {
		resp, err := hs.Client().Get(hs.URL + "/TypedEcho?wsdl")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Length")
	}
	doc1, cl1 := fetch()
	if cl1 == "" || cl1 != strconv.Itoa(len(doc1)) {
		t.Errorf("Content-Length = %q for %d body bytes", cl1, len(doc1))
	}
	doc2, _ := fetch()
	if doc1 != doc2 {
		t.Error("cached WSDL differs between fetches")
	}
	if !strings.Contains(doc1, hs.URL+"/TypedEcho") {
		t.Errorf("WSDL endpoint missing from document")
	}
	// Rewriting the base URL must invalidate the cached document.
	srv.SetBaseURL("http://relocated:9999")
	for _, p := range srv.Providers() {
		for _, svc := range p.Services() {
			if !strings.Contains(p.WSDLFor(svc), "http://relocated:9999/TypedEcho") {
				t.Error("WSDLFor did not pick up new base URL")
			}
		}
	}
	srv.SetBaseURL(hs.URL) // restore so the HTTP fetch goes through again
	doc3, _ := fetch()
	if doc3 != doc1 {
		t.Error("WSDL after base-URL rewrite cycle differs from original")
	}
}

// TestWSILCacheFreshness: the cached inspection document still reflects
// services registered after the first fetch.
func TestWSILCacheFreshness(t *testing.T) {
	srv := NewServer("test", "http://host:1")
	p := srv.Provider("")
	p.MustRegister(typedDef().MustBuild())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.SetBaseURL(hs.URL)

	fetch := func() *wsil.Document {
		resp, err := hs.Client().Get(hs.URL + wsil.WellKnownPath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("WSIL Content-Length = %q for %d bytes", cl, len(body))
		}
		doc, err := wsil.Parse(string(body))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	if doc := fetch(); len(doc.Services) != 1 {
		t.Fatalf("services = %d, want 1", len(doc.Services))
	}
	if doc := fetch(); len(doc.Services) != 1 { // cached fetch
		t.Fatalf("cached services = %d, want 1", len(doc.Services))
	}
	late := &Def{Name: "Late", NS: "urn:test:late", Ops: []Op{{
		Name:   "noop",
		Handle: func(*core.Context, Args) ([]interface{}, error) { return nil, nil },
	}}}
	p.MustRegister(late.MustBuild())
	if doc := fetch(); len(doc.Services) != 2 {
		t.Fatalf("services after late registration = %d, want 2 (cache must refresh)", len(doc.Services))
	}
}
