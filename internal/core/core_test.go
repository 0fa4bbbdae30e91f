package core

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

func echoContract() *wsdl.Interface {
	return &wsdl.Interface{
		Name:     "Echo",
		TargetNS: "urn:test:echo",
		Operations: []wsdl.Operation{
			{Name: "say", Input: []wsdl.Param{{Name: "msg", Type: "string"}},
				Output: []wsdl.Param{{Name: "echo", Type: "string"}}},
			{Name: "add", Input: []wsdl.Param{{Name: "a", Type: "int"}, {Name: "b", Type: "int"}},
				Output: []wsdl.Param{{Name: "sum", Type: "int"}}},
			{Name: "whoami", Output: []wsdl.Param{{Name: "principal", Type: "string"}}},
		},
	}
}

func echoService() *Service {
	return NewService(echoContract()).
		Handle("say", func(_ *Context, args soap.Args) ([]soap.Value, error) {
			return []soap.Value{soap.Str("echo", args.String("msg"))}, nil
		}).
		Handle("add", func(_ *Context, args soap.Args) ([]soap.Value, error) {
			return []soap.Value{soap.Int("sum", args.Int("a")+args.Int("b"))}, nil
		}).
		Handle("whoami", func(ctx *Context, _ soap.Args) ([]soap.Value, error) {
			return []soap.Value{soap.Str("principal", ctx.Principal)}, nil
		})
}

func newTestProvider(t *testing.T) (*Provider, *Client) {
	t.Helper()
	p := NewProvider("test-ssp", "loopback://ssp")
	p.MustRegister(echoService())
	tr := p.Loopback()
	c := NewClient(tr, "loopback://ssp/Echo", echoContract())
	return p, c
}

func TestDispatchAndCall(t *testing.T) {
	_, c := newTestProvider(t)
	got, err := c.CallText("say", soap.Str("msg", "hello"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Errorf("echo = %q", got)
	}
	resp, release, err := c.Call(context.Background(), "add", soap.Int("a", 20), soap.Int("b", 22))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if resp.ReturnText("sum") != "42" {
		t.Errorf("sum = %q", resp.ReturnText("sum"))
	}
}

func TestContractValidation(t *testing.T) {
	_, c := newTestProvider(t)
	cases := []struct {
		name string
		op   string
		args []soap.Value
		want string
	}{
		{"unknown op", "vanish", nil, "not in contract"},
		{"wrong arity", "say", nil, "takes 1 parameters"},
		{"wrong name", "say", []soap.Value{soap.Str("message", "x")}, `parameter 0 is "message"`},
		{"wrong type", "add", []soap.Value{soap.Str("a", "1"), soap.Int("b", 2)}, "wire type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.CallText(tc.op, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestUnknownNamespaceFault(t *testing.T) {
	p, _ := newTestProvider(t)
	tr := p.Loopback()
	other := &wsdl.Interface{Name: "Other", TargetNS: "urn:other",
		Operations: []wsdl.Operation{{Name: "x"}}}
	c := NewClient(tr, "loopback://ssp/Other", other)
	_, err := c.CallText("x")
	var f *soap.Fault
	if !errors.As(err, &f) || f.Code != soap.FaultClient {
		t.Errorf("err = %v, want Client fault", err)
	}
}

func TestUnimplementedOperationPortalError(t *testing.T) {
	p := NewProvider("ssp", "loopback://x")
	svc := NewService(echoContract())
	// Register bypassing Validate to simulate a drifted deployment.
	svc.handlers["say"] = func(_ *Context, _ soap.Args) ([]soap.Value, error) { return nil, nil }
	p.byNS[svc.Contract.TargetNS] = svc
	tr := p.Loopback()
	c := NewClient(tr, "x", echoContract())
	_, err := c.CallText("add", soap.Int("a", 1), soap.Int("b", 2))
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeNoSuchMethod {
		t.Errorf("err = %v, want NoSuchMethod portal error", err)
	}
}

func TestValidateMissingHandlers(t *testing.T) {
	svc := NewService(echoContract())
	err := svc.Validate()
	if err == nil || !strings.Contains(err.Error(), "add") {
		t.Errorf("err = %v", err)
	}
	p := NewProvider("ssp", "http://x")
	if err := p.Register(svc); err == nil {
		t.Error("provider accepted invalid service")
	}
}

func TestHandleUncontractedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Handle of uncontracted op did not panic")
		}
	}()
	NewService(echoContract()).Handle("bogus", nil)
}

func TestDuplicateRegistration(t *testing.T) {
	p := NewProvider("ssp", "http://x")
	p.MustRegister(echoService())
	if err := p.Register(echoService()); err == nil {
		t.Error("duplicate namespace accepted")
	}
}

func TestMiddlewareOrderAndRejection(t *testing.T) {
	p := NewProvider("ssp", "loopback://x")
	var order []string
	p.Use(func(next HandlerFunc) HandlerFunc {
		return func(ctx *Context, args soap.Args) ([]soap.Value, error) {
			order = append(order, "provider")
			vals, err := next(ctx, args)
			order = append(order, "provider-out")
			return vals, err
		}
	})
	svc := echoService().Use(func(next HandlerFunc) HandlerFunc {
		return func(ctx *Context, args soap.Args) ([]soap.Value, error) {
			order = append(order, "service")
			ctx.Principal = "cyoun"
			return next(ctx, args)
		}
	})
	p.MustRegister(svc)
	tr := p.Loopback()
	c := NewClient(tr, "x", echoContract())
	got, err := c.CallText("whoami")
	if err != nil {
		t.Fatal(err)
	}
	if got != "cyoun" {
		t.Errorf("principal = %q", got)
	}
	// Provider middleware is outermost: first in, last out.
	want := []string{"provider", "service", "provider-out"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order = %v, want %v", order, want)
			break
		}
	}
}

func TestMiddlewareRejects(t *testing.T) {
	p := NewProvider("ssp", "loopback://x")
	p.Use(func(HandlerFunc) HandlerFunc {
		return func(*Context, soap.Args) ([]soap.Value, error) {
			return nil, soap.NewPortalError("gate", soap.ErrCodeAccessDenied, "no assertion")
		}
	})
	p.MustRegister(echoService())
	tr := p.Loopback()
	c := NewClient(tr, "x", echoContract())
	_, err := c.CallText("say", soap.Str("msg", "x"))
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeAccessDenied {
		t.Errorf("err = %v", err)
	}
}

func TestClientInterceptorAddsHeader(t *testing.T) {
	p := NewProvider("ssp", "loopback://x")
	svc := NewService(echoContract())
	svc.Handle("say", func(ctx *Context, args soap.Args) ([]soap.Value, error) {
		h := ctx.Envelope.HeaderNamed("urn:saml", "Assertion")
		if h == nil {
			return nil, soap.NewPortalError("echo", soap.ErrCodeAuthFailed, "missing assertion")
		}
		return []soap.Value{soap.Str("echo", h.AttrDefault("subject", ""))}, nil
	})
	svc.Handle("add", func(*Context, soap.Args) ([]soap.Value, error) { return nil, nil })
	svc.Handle("whoami", func(*Context, soap.Args) ([]soap.Value, error) { return nil, nil })
	p.MustRegister(svc)
	tr := p.Loopback()
	c := NewClient(tr, "x", echoContract())
	c.Use(func(_ *soap.Call, env *soap.Envelope) error {
		env.AddHeader(xmlutil.NewNS("urn:saml", "Assertion").SetAttr("subject", "mock@sdsc"))
		return nil
	})
	got, err := c.CallText("say", soap.Str("msg", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "mock@sdsc" {
		t.Errorf("subject = %q", got)
	}
}

func TestHTTPServerWSDLAndBind(t *testing.T) {
	p := NewProvider("ssp", "placeholder")
	p.MustRegister(echoService())
	srv := httptest.NewServer(p)
	defer srv.Close()
	p.BaseURL = srv.URL

	// Fetch WSDL over HTTP and bind dynamically — the Figure 1 flow.
	c, err := BindURL(&soap.HTTPTransport{Client: srv.Client()}, srv.Client(), srv.URL+"/Echo?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	if c.Endpoint != srv.URL+"/Echo" {
		t.Errorf("bound endpoint = %q", c.Endpoint)
	}
	got, err := c.CallText("say", soap.Str("msg", "over http"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "over http" {
		t.Errorf("echo = %q", got)
	}
}

func TestHTTPWSDLNotFound(t *testing.T) {
	p := NewProvider("ssp", "http://x")
	p.MustRegister(echoService())
	srv := httptest.NewServer(p)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/Nothing?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestBindErrors(t *testing.T) {
	if _, err := Bind(nil, "garbage"); err == nil {
		t.Error("garbage WSDL accepted")
	}
	noEndpoint := `<definitions xmlns="http://schemas.xmlsoap.org/wsdl/" targetNamespace="urn:x">
	  <portType name="T"><operation name="go"/></portType></definitions>`
	if _, err := Bind(nil, noEndpoint); err == nil {
		t.Error("WSDL without endpoint accepted")
	}
}

func TestCallStringsAndXML(t *testing.T) {
	contract := &wsdl.Interface{Name: "Lists", TargetNS: "urn:lists", Operations: []wsdl.Operation{
		{Name: "names", Output: []wsdl.Param{{Name: "out", Type: "stringArray"}}},
		{Name: "doc", Output: []wsdl.Param{{Name: "out", Type: "xml"}}},
		{Name: "nothing"},
	}}
	svc := NewService(contract).
		Handle("names", func(*Context, soap.Args) ([]soap.Value, error) {
			return []soap.Value{soap.StrArray("out", []string{"PBS", "LSF"})}, nil
		}).
		Handle("doc", func(*Context, soap.Args) ([]soap.Value, error) {
			return []soap.Value{soap.XMLDoc("out", xmlutil.NewText("v", "1"))}, nil
		}).
		Handle("nothing", func(*Context, soap.Args) ([]soap.Value, error) { return nil, nil })
	p := NewProvider("ssp", "loopback://x")
	p.MustRegister(svc)
	c := NewClient(p.Loopback(), "x", contract)

	names, err := c.CallStrings("names")
	if err != nil || len(names) != 2 || names[0] != "PBS" {
		t.Errorf("names = %v, %v", names, err)
	}
	var text string
	err = c.CallXML(context.Background(), "doc", func(el *xmlutil.Element) error {
		text = el.Text
		return nil
	})
	if err != nil || text != "1" {
		t.Errorf("doc = %q, %v", text, err)
	}
	errDecode := errors.New("decode failed")
	if err := c.CallXML(context.Background(), "doc", func(*xmlutil.Element) error { return errDecode }); err != errDecode {
		t.Errorf("CallXML decode error = %v, want %v", err, errDecode)
	}
	called := false
	if err := c.CallXML(context.Background(), "nothing", func(*xmlutil.Element) error { called = true; return nil }); err == nil || called {
		t.Errorf("CallXML on empty return: err %v, decode called %v", err, called)
	}
	if _, err := c.CallStrings("nothing"); err == nil {
		t.Error("CallStrings on empty return should fail")
	}
}

func TestProviderServicesSorted(t *testing.T) {
	p := NewProvider("ssp", "http://x")
	p.MustRegister(echoService())
	b := NewService(&wsdl.Interface{Name: "Alpha", TargetNS: "urn:alpha",
		Operations: []wsdl.Operation{{Name: "op"}}}).
		Handle("op", func(*Context, soap.Args) ([]soap.Value, error) { return nil, nil })
	p.MustRegister(b)
	svcs := p.Services()
	if len(svcs) != 2 || svcs[0].Contract.Name != "Alpha" || svcs[1].Contract.Name != "Echo" {
		t.Errorf("services order wrong: %v", svcs)
	}
	if got := p.EndpointFor(svcs[0]); got != "http://x/Alpha" {
		t.Errorf("endpoint = %q", got)
	}
}

// TestStreamReleaseContract pins when Serve recycles the streaming
// reader's decoded request: once the response is rendered, whether the
// handler succeeds or fails, and never once the chain was abandoned, since
// a runaway handler may still read its arguments. Release zeroes the
// pooled parameters, so the arguments a middleware saw read empty after
// Serve exactly when the request was recycled. An unknown method never
// reaches the chain and is answered on the same path.
func TestStreamReleaseContract(t *testing.T) {
	request := func(method, msg string) []byte {
		var b bytes.Buffer
		call := soap.Call{ServiceNS: "urn:test:echo", Method: method, Params: []soap.Value{soap.Str("msg", msg)}}
		call.WireEnvelope().AppendTo(&b)
		return b.Bytes()
	}
	// An extra body entry after the call element is read past: the first
	// entry is the call, as in ParseCall.
	tail := bytes.Replace(request("say", "tail"), []byte("</ns0:Body>"), []byte("<extra/></ns0:Body>"), 1)
	cases := []struct {
		name     string
		body     []byte
		released bool
		fault    bool
		ran      bool // the chain ran
	}{
		{"success", request("say", "hi"), true, false, true},
		{"handler error", request("say", "fail"), true, true, true},
		{"malformed tail", tail, true, false, true},
		{"unknown method", request("nosuch", "hi"), true, true, false},
		{"abandoned", request("say", "abandon"), false, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProvider("ssp", "loopback://x")
			var seen soap.Args
			p.Use(func(next HandlerFunc) HandlerFunc {
				return func(ctx *Context, args soap.Args) ([]soap.Value, error) {
					seen = args
					switch args.String("msg") {
					case "fail":
						return nil, errors.New("handler failed")
					case "abandon":
						ctx.Abandon()
						return nil, errors.New("gave up")
					}
					return next(ctx, args)
				}
			})
			p.MustRegister(echoService())
			var out bytes.Buffer
			err := p.Serve(context.Background(), tc.body, &out)
			if (err != nil) != tc.fault {
				t.Fatalf("err = %v, want fault %v", err, tc.fault)
			}
			if ran := seen != nil; ran != tc.ran {
				t.Fatalf("chain ran = %v, want %v", ran, tc.ran)
			}
			if tc.ran {
				if released := seen[0].Name == ""; released != tc.released {
					t.Errorf("arguments released = %v, want %v", released, tc.released)
				}
			}
		})
	}
}
