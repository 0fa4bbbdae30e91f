package soap

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmlutil"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	call := &Call{
		ServiceNS: "urn:globusrun",
		Method:    "submitJob",
		Params: []Value{
			Str("host", "modi4.ncsa.uiuc.edu"),
			Str("executable", "/bin/hostname"),
			Int("count", 4),
			Bool("batch", true),
			StrArray("args", []string{"-a", "-b"}),
		},
	}
	env := call.WireEnvelope()
	parsed, err := ParseEnvelopeBytes([]byte(env.Render()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseCall(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "submitJob" || got.ServiceNS != "urn:globusrun" {
		t.Fatalf("call = %q %q", got.ServiceNS, got.Method)
	}
	args := Args(got.Params)
	if args.String("host") != "modi4.ncsa.uiuc.edu" {
		t.Errorf("host = %q", args.String("host"))
	}
	if args.Int("count") != 4 {
		t.Errorf("count = %d", args.Int("count"))
	}
	if !args.Bool("batch") {
		t.Error("batch = false")
	}
	if got := args.Strings("args"); len(got) != 2 || got[0] != "-a" || got[1] != "-b" {
		t.Errorf("args = %v", got)
	}
}

func TestXMLParameter(t *testing.T) {
	jobs := xmlutil.New("jobs")
	jobs.Add(xmlutil.New("job").AddText("executable", "/bin/date"))
	call := &Call{ServiceNS: "urn:globusrun", Method: "submitXML", Params: []Value{XMLDoc("request", jobs)}}
	parsed, err := ParseEnvelopeBytes([]byte(call.WireEnvelope().Render()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseCall(parsed)
	if err != nil {
		t.Fatal(err)
	}
	doc := Args(got.Params).XML("request")
	if doc == nil {
		t.Fatal("XML param lost")
	}
	if exe := doc.Find("job/executable"); exe == nil || exe.Text != "/bin/date" {
		t.Errorf("job executable = %v", exe)
	}
}

// TestWrittenXMLReturn checks that a WriteXML payload streams the same
// envelope as the tree it writes, held as an XML value.
func TestWrittenXMLReturn(t *testing.T) {
	tree := xmlutil.New("serviceList")
	tree.Add(xmlutil.New("businessService").SetAttr("serviceKey", "a&\"b\"\r").AddText("name", "<x> & y\r"))
	tree.Add(xmlutil.New("businessService").AddText("description", ""))
	written := &Response{ServiceNS: "urn:gce:uddi", Method: "findService",
		Returns: []Value{{Name: "serviceList", WriteXML: func(w *xmlutil.Writer) { w.Element(tree) }}}}
	held := &Response{ServiceNS: "urn:gce:uddi", Method: "findService", Returns: []Value{XMLDoc("serviceList", tree)}}
	want := held.WireEnvelope().Render()
	if got := written.WireEnvelope().Render(); got != want {
		t.Fatalf("streamed envelopes differ\nwritten: %s\nheld:    %s", got, want)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := &Response{ServiceNS: "urn:srb", Method: "ls", Returns: []Value{StrArray("entries", []string{"a.dat", "b.dat"})}}
	parsed, err := ParseEnvelopeBytes([]byte(r.WireEnvelope().Render()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseResponse(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "ls" {
		t.Errorf("method = %q", got.Method)
	}
	v, ok := got.Return("entries")
	if !ok || len(v.Items) != 2 {
		t.Fatalf("entries = %+v ok=%v", v, ok)
	}
}

func TestFaultRoundTrip(t *testing.T) {
	pe := NewPortalError("SRBService", ErrCodeResourceFull, "disk full on resource %s", "sdsc-disk1")
	env := (&Response{Fault: pe.Fault()}).WireEnvelope()
	parsed, err := ParseEnvelopeBytes([]byte(env.Render()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(parsed)
	if err == nil {
		t.Fatal("fault response should return error")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error is %T, want *Fault", err)
	}
	if f.Code != FaultServer {
		t.Errorf("code = %q", f.Code)
	}
	got := resp.Fault.PortalError()
	if got == nil {
		t.Fatal("portal error lost in relay")
	}
	if got.Code != ErrCodeResourceFull || got.Service != "SRBService" {
		t.Errorf("portal error = %+v", got)
	}
	if !strings.Contains(got.Message, "sdsc-disk1") {
		t.Errorf("message = %q", got.Message)
	}
}

func TestAsPortalError(t *testing.T) {
	pe := NewPortalError("X", ErrCodeAccessDenied, "no")
	if AsPortalError(pe) == nil {
		t.Error("direct PortalError not unwrapped")
	}
	if AsPortalError(pe.Fault()) == nil {
		t.Error("fault-wrapped PortalError not unwrapped")
	}
	if AsPortalError(errors.New("plain")) != nil {
		t.Error("plain error should yield nil")
	}
}

func TestVersionMismatch(t *testing.T) {
	_, err := ParseEnvelopeBytes([]byte(`<Envelope xmlns="urn:not-soap"><Body/></Envelope>`))
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultVersionMismatch {
		t.Errorf("err = %v, want VersionMismatch fault", err)
	}
}

func TestParseEnvelopeErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"<notsoap/>",
		`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Header/></Envelope>`,
	} {
		if _, err := ParseEnvelopeBytes([]byte(bad)); err == nil {
			t.Errorf("ParseEnvelopeBytes(%q) succeeded", bad)
		}
	}
}

func TestHeaderEntries(t *testing.T) {
	env := NewEnvelope()
	assertion := xmlutil.NewNS("urn:saml", "Assertion").SetAttr("issuer", "authsvc")
	env.AddHeader(assertion)
	env.AddBody(xmlutil.New("op"))
	parsed, err := ParseEnvelopeBytes([]byte(env.Render()))
	if err != nil {
		t.Fatal(err)
	}
	h := parsed.HeaderNamed("urn:saml", "Assertion")
	if h == nil {
		t.Fatal("header lost")
	}
	if v, _ := h.Attr("issuer"); v != "authsvc" {
		t.Errorf("issuer = %q", v)
	}
	if parsed.HeaderNamed("urn:saml", "Missing") != nil {
		t.Error("HeaderNamed on absent name should be nil")
	}
	if parsed.HeaderNamed("urn:other", "Assertion") != nil {
		t.Error("HeaderNamed matched an entry in another namespace")
	}
}

// serveEnvelope adapts a tree-level test handler into a ServeFunc that
// answers the way core.Provider.Serve does: parse errors become Client
// faults, handler errors Server faults, and the error is returned exactly
// when a fault was written.
func serveEnvelope(h func(req *Envelope) (*Envelope, error)) ServeFunc {
	return func(_ context.Context, body []byte, out *bytes.Buffer) error {
		req, err := ParseEnvelopeBytes(body)
		if err != nil {
			FaultEnvelope(err, FaultClient).AppendTo(out)
			return err
		}
		resp, err := h(req)
		if err != nil {
			resp = FaultEnvelope(err, FaultServer)
		}
		resp.AppendTo(out)
		return err
	}
}

func echoHandler(req *Envelope) (*Envelope, error) {
	call, err := ParseCall(req)
	if err != nil {
		return nil, err
	}
	if call.Method == "fail" {
		return nil, NewPortalError("echo", ErrCodeJobFailed, "requested failure")
	}
	resp := &Response{ServiceNS: call.ServiceNS, Method: call.Method,
		Returns: []Value{Str("echo", Args(call.Params).String("msg"))}}
	return resp.WireEnvelope(), nil
}

// invoke sends call through t and parses the answer as a tree.
func invoke(t Transport, endpoint string, call *Call) (*Response, error) {
	env, err := RoundTripEnvelope(context.Background(), t, endpoint, call.ServiceNS+"#"+call.Method, call.WireEnvelope())
	if err != nil {
		return nil, err
	}
	return ParseResponse(env)
}

func TestHTTPTransport(t *testing.T) {
	srv := httptest.NewServer(Handler(serveEnvelope(echoHandler)))
	defer srv.Close()
	tr := &HTTPTransport{Client: srv.Client()}
	resp, err := invoke(tr, srv.URL, &Call{ServiceNS: "urn:echo", Method: "say", Params: []Value{Str("msg", "hello grid")}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ReturnText("echo") != "hello grid" {
		t.Errorf("echo = %q", resp.ReturnText("echo"))
	}
}

func TestHTTPTransportFault(t *testing.T) {
	srv := httptest.NewServer(Handler(serveEnvelope(echoHandler)))
	defer srv.Close()
	tr := &HTTPTransport{Client: srv.Client()}
	_, err := invoke(tr, srv.URL, &Call{ServiceNS: "urn:echo", Method: "fail"})
	pe := AsPortalError(err)
	if pe == nil || pe.Code != ErrCodeJobFailed {
		t.Fatalf("err = %v, want portal JobFailed", err)
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(Handler(serveEnvelope(echoHandler)))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestLoopbackTransport(t *testing.T) {
	tr := &LoopbackTransport{Serve: serveEnvelope(echoHandler)}
	resp, err := invoke(tr, "loopback://echo", &Call{ServiceNS: "urn:echo", Method: "say", Params: []Value{Str("msg", "x")}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ReturnText("echo") != "x" {
		t.Errorf("echo = %q", resp.ReturnText("echo"))
	}
}

func TestArgsDefaults(t *testing.T) {
	var a Args
	if a.String("x") != "" || a.Int("x") != 0 || a.Bool("x") || a.Strings("x") != nil || a.XML("x") != nil {
		t.Error("zero Args should yield zero values")
	}
	a = Args{Value{Name: "n", Type: "int", Text: "bogus"}}
	if a.Int("n") != 0 {
		t.Error("unparseable int should yield 0")
	}
}

// Property: any call with random scalar params survives the wire format.
func TestPropertyCallRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		call := &Call{ServiceNS: "urn:prop", Method: "m"}
		n := r.Intn(6)
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			switch r.Intn(3) {
			case 0:
				call.Params = append(call.Params, Str(name, randomString(r)))
			case 1:
				call.Params = append(call.Params, Int(name, r.Intn(10000)-5000))
			default:
				call.Params = append(call.Params, Bool(name, r.Intn(2) == 0))
			}
		}
		env, err := ParseEnvelopeBytes([]byte(call.WireEnvelope().Render()))
		if err != nil {
			return false
		}
		got, err := ParseCall(env)
		if err != nil || len(got.Params) != len(call.Params) {
			return false
		}
		for i := range call.Params {
			if got.Params[i].Name != call.Params[i].Name || got.Params[i].Text != call.Params[i].Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randomString(r *rand.Rand) string {
	chars := []rune(`abcdef <>&"XYZ/\-_.:;`)
	n := r.Intn(20)
	out := make([]rune, n)
	for i := range out {
		out[i] = chars[r.Intn(len(chars))]
	}
	return strings.TrimSpace(string(out))
}

// TestEnvelopeBOMAndLeadingWhitespace: peer SOAP stacks (notably on Windows)
// prefix envelopes with a UTF-8 byte-order mark or whitespace before the XML
// declaration; decoding must tolerate both.
func TestEnvelopeBOMAndLeadingWhitespace(t *testing.T) {
	call := &Call{ServiceNS: "urn:bench", Method: "op", Params: []Value{Str("a", "v")}}
	buf := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(buf)
	call.WireEnvelope().AppendTo(buf) // includes the XML declaration
	wire := buf.String()
	for _, tc := range []struct {
		name, prefix string
	}{
		{"bom", "\xef\xbb\xbf"},
		{"whitespace", "  \r\n\t"},
		{"bom+whitespace", "\xef\xbb\xbf \n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := ParseEnvelopeBytes([]byte(tc.prefix + wire))
			if err != nil {
				t.Fatalf("ParseEnvelopeBytes with %s prefix: %v", tc.name, err)
			}
			got, err := ParseCall(env)
			if err != nil || got.Method != "op" || len(got.Params) != 1 {
				t.Fatalf("ParseCall = %+v, %v", got, err)
			}
			_, name, vals, err := decodeBody([]byte(tc.prefix + wire))
			if err != nil || name != "op" || len(vals) != 1 {
				t.Fatalf("streamed decode with %s prefix: %s %q, %v", tc.name, name, vals, err)
			}
		})
	}
}

// TestPooledEnvelopeRelease: the arena behind DecodeResponse's XML
// returns is recycled across decodes without leaking state between
// documents, and a second release is a no-op.
func TestPooledEnvelopeRelease(t *testing.T) {
	mk := func(text string) string {
		r := &Response{ServiceNS: "urn:x", Method: "m", Returns: []Value{XMLDoc("p", xmlutil.NewText("doc", text))}}
		return r.WireEnvelope().Render()
	}
	for i := 0; i < 50; i++ {
		resp, release, err := DecodeResponse([]byte(mk(strings.Repeat("x", i+1))))
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Returns[0].XML.Text; got != strings.Repeat("x", i+1) {
			t.Fatalf("iteration %d: return = %q", i, got)
		}
		release()
		release() // double release must be a no-op
	}
}
