package gateway_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batchscript"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/wsil"
)

// newBackend hosts the given services on a real HTTP listener, with the
// server's published base URL rewritten to the listener address so the
// WSIL/WSDL the gateway crawls points back at the listener.
func newBackend(t *testing.T, name string, build func(srv *rpc.Server)) (*rpc.Server, *httptest.Server) {
	t.Helper()
	srv := rpc.NewServer(name, "http://placeholder")
	build(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	srv.SetBaseURL(ts.URL)
	return srv, ts
}

func batchBackend(t *testing.T, name string) (*rpc.Server, *httptest.Server) {
	return newBackend(t, name, func(srv *rpc.Server) {
		srv.Provider("/ssp").MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
	})
}

func newGateway(t *testing.T, backends ...string) *gateway.Gateway {
	t.Helper()
	gw := gateway.New("gw", "http://gw.local")
	if err := gw.Mount(backends...); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	return gw
}

// do drives one request through the gateway's HTTP surface.
func do(gw *gateway.Gateway, method, target string, body []byte) *httptest.ResponseRecorder {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, r)
	return rec
}

func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "rpc", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func parseFault(t *testing.T, body []byte) *soap.Fault {
	t.Helper()
	env, err := soap.ParseEnvelopeBytes(body)
	if err != nil {
		t.Fatalf("fault body does not parse: %v\n%s", err, body)
	}
	resp, err := soap.ParseResponse(env)
	if err == nil || resp == nil || resp.Fault == nil {
		t.Fatalf("expected a fault, got %v (err %v)", resp, err)
	}
	return resp.Fault
}

// TestMountAggregatesInspection pins the federation surface: one entry
// per federated service pointing at the gateway's republished WSDL, links
// to every backend's own inspection document, and no duplicates when a
// backend is mounted twice.
func TestMountAggregatesInspection(t *testing.T) {
	_, a := batchBackend(t, "a")
	_, b := batchBackend(t, "b")
	gw := newGateway(t, a.URL, b.URL)
	if err := gw.Mount(a.URL); err != nil { // re-mount must be idempotent
		t.Fatal(err)
	}
	if got := gw.Backends(); len(got) != 2 {
		t.Fatalf("backends = %v", got)
	}

	rec := do(gw, http.MethodGet, "http://gw.local"+wsil.WellKnownPath, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("inspection status = %d", rec.Code)
	}
	doc, err := wsil.Parse(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Services) != 1 {
		t.Fatalf("services = %+v", doc.Services)
	}
	if got := doc.Services[0].WSDLLocation; got != "http://gw.local/ssp/BatchScriptGenerator?wsdl" {
		t.Errorf("WSDL location = %q", got)
	}
	if len(doc.Links) != 2 || doc.Links[0].Location != a.URL+wsil.WellKnownPath {
		t.Errorf("links = %+v", doc.Links)
	}
}

// TestWSDLRebindsToGateway: the republished contract must be the
// backend's interface with the gateway as endpoint, so clients
// discovering through the gateway bind to the gateway.
func TestWSDLRebindsToGateway(t *testing.T) {
	_, a := batchBackend(t, "a")
	gw := newGateway(t, a.URL)

	rec := do(gw, http.MethodGet, "http://gw.local/ssp/BatchScriptGenerator?wsdl", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("wsdl status = %d", rec.Code)
	}
	svc, err := wsdl.Parse(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	if svc.Endpoint != "http://gw.local/ssp/BatchScriptGenerator" {
		t.Errorf("endpoint = %q", svc.Endpoint)
	}
	direct := batchscript.NewService(batchscript.NewIUGenerator()).Contract
	if problems := wsdl.CheckCompatible(direct, svc.Interface); len(problems) != 0 {
		t.Errorf("republished contract diverges: %v", problems)
	}
	// Plain GET without ?wsdl is not a SOAP request.
	if rec := do(gw, http.MethodGet, "http://gw.local/ssp/BatchScriptGenerator", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("plain GET = %d", rec.Code)
	}
}

// TestForwardByteIdentity: a request through the gateway must produce the
// exact bytes the golden suite pins for a direct connection — success
// and fault shapes both relay unmodified.
func TestForwardByteIdentity(t *testing.T) {
	_, a := batchBackend(t, "a")
	_, b := batchBackend(t, "b")
	gw := newGateway(t, a.URL, b.URL)

	rec := do(gw, http.MethodPost, "http://gw.local/ssp/BatchScriptGenerator", golden(t, "batchscript.req.xml"))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != soap.ContentType {
		t.Errorf("content type = %q", ct)
	}
	if want := golden(t, "batchscript.resp.xml"); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("gateway response diverges from golden\n got: %s\nwant: %s", rec.Body.Bytes(), want)
	}
}

// TestFaultRelay: a backend fault arrives with its HTTP 500 status and
// the identical envelope a direct client would see.
func TestFaultRelay(t *testing.T) {
	_, a := batchBackend(t, "a")
	gw := newGateway(t, a.URL)

	call := &soap.Call{ServiceNS: batchscript.ServiceNS, Method: "generateScript", Params: []soap.Value{
		soap.Str("scheduler", "NO-SUCH-SCHEDULER"), soap.Str("jobName", "j"),
		soap.Str("executable", "/bin/true"), soap.Int("nodes", 1), soap.Int("wallTimeSeconds", 60),
	}}
	var req bytes.Buffer
	call.WireEnvelope().AppendTo(&req)

	// Direct to the backend first, for the reference bytes.
	direct, err := http.Post(a.URL+"/ssp/BatchScriptGenerator", soap.ContentType, bytes.NewReader(req.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := soap.ReadMessage(&want, direct.Body); err != nil {
		t.Fatal(err)
	}
	direct.Body.Close()
	if direct.StatusCode != http.StatusInternalServerError {
		t.Fatalf("direct fault status = %d", direct.StatusCode)
	}

	rec := do(gw, http.MethodPost, "http://gw.local/ssp/BatchScriptGenerator", req.Bytes())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("relayed fault status = %d", rec.Code)
	}
	f := parseFault(t, rec.Body.Bytes())
	if pe := f.PortalError(); pe == nil {
		t.Errorf("relayed fault lost its portal error: %+v", f)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Errorf("relayed fault diverges from direct\n got: %s\nwant: %s", rec.Body.Bytes(), want.Bytes())
	}
}

// forwardFunc fabricates backend responses, for relay-metadata tests.
type forwardFunc func(resp *bytes.Buffer) (gateway.ForwardResult, error)

func (f forwardFunc) Forward(_ context.Context, _, _, _ string, _ []byte, resp *bytes.Buffer) (gateway.ForwardResult, error) {
	return f(resp)
}

// TestRetryAfterRelay: the Retry-After transport metadata a degraded
// backend emits must reach the caller unchanged.
func TestRetryAfterRelay(t *testing.T) {
	_, a := batchBackend(t, "a")
	gw := newGateway(t, a.URL)
	fault := (&soap.Response{Fault: &soap.Fault{Code: soap.FaultServer, String: "busy"}}).WireEnvelope()
	gw.Forward = forwardFunc(func(resp *bytes.Buffer) (gateway.ForwardResult, error) {
		fault.AppendTo(resp)
		return gateway.ForwardResult{Status: http.StatusInternalServerError, RetryAfter: "7"}, nil
	})

	req := &soap.Call{ServiceNS: batchscript.ServiceNS, Method: "listSchedulers"}
	var body bytes.Buffer
	req.WireEnvelope().AppendTo(&body)
	rec := do(gw, http.MethodPost, "http://gw.local/ssp/BatchScriptGenerator", body.Bytes())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q", got)
	}
}

// TestOversizeRejected: the front door refuses oversize requests with the
// same typed 413 fault the kernel emits, before any forwarding happens.
func TestOversizeRejected(t *testing.T) {
	_, a := batchBackend(t, "a")
	gw := newGateway(t, a.URL)

	r := httptest.NewRequest(http.MethodPost, "http://gw.local/ssp/BatchScriptGenerator", strings.NewReader("<small/>"))
	r.ContentLength = soap.MaxMessageBytes() + 1
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, r)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d", rec.Code)
	}
	f := parseFault(t, rec.Body.Bytes())
	if f.Code != soap.FaultClient {
		t.Errorf("fault code = %q", f.Code)
	}
	if pe := f.PortalError(); pe == nil || pe.Code != soap.ErrCodeBadRequest {
		t.Errorf("portal error = %+v", pe)
	}
}

// widgetDef builds a tiny service whose contract the divergence test can
// bend.
func widgetDef(idType string) *rpc.Def {
	return &rpc.Def{
		Name: "Widget", NS: "urn:test:widget",
		Ops: []rpc.Op{{
			Name: "get",
			In:   []wsdl.Param{{Name: "id", Type: idType}},
			Out:  []wsdl.Param{rpc.Str("value")},
			Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
				return rpc.Ret("w"), nil
			},
		}},
	}
}

// TestMountRejectsDivergentReplica: a backend advertising the same path
// with an incompatible contract must be refused at federation time.
func TestMountRejectsDivergentReplica(t *testing.T) {
	_, a := newBackend(t, "a", func(srv *rpc.Server) {
		srv.Provider("").MustRegister(widgetDef("string").MustBuild())
	})
	_, b := newBackend(t, "b", func(srv *rpc.Server) {
		srv.Provider("").MustRegister(widgetDef("int").MustBuild())
	})
	gw := gateway.New("gw", "http://gw.local")
	t.Cleanup(gw.Close)
	if err := gw.Mount(a.URL); err != nil {
		t.Fatal(err)
	}
	err := gw.Mount(b.URL)
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("divergent replica accepted: %v", err)
	}
	if got := gw.Backends(); len(got) != 1 {
		t.Errorf("divergent backend joined the ring: %v", got)
	}
}

// kvDef is a cacheable read / invalidating write pair for the fleet-wide
// flush test.
func kvDef(v *string, mu *sync.Mutex) *rpc.Def {
	return &rpc.Def{
		Name: "KVStore", NS: "urn:test:kv",
		Ops: []rpc.Op{
			{
				Name: "getValue", Out: []wsdl.Param{rpc.Str("value")}, Idempotent: true,
				Handle: func(_ *core.Context, _ rpc.Args) ([]interface{}, error) {
					mu.Lock()
					defer mu.Unlock()
					return rpc.Ret(*v), nil
				},
			},
			{
				Name: "setValue", In: []wsdl.Param{rpc.Str("value")}, Out: []wsdl.Param{rpc.Str("ok")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					mu.Lock()
					defer mu.Unlock()
					*v = in.Str("value")
					return rpc.Ret("ok"), nil
				},
			},
		},
	}
}

// TestWriteFlushesFleetCaches: a write forwarded to one replica must
// empty the response caches of every replica before the response returns
// — the handling backend via its own cache middleware, the siblings via
// the authenticated __flush control op.
func TestWriteFlushesFleetCaches(t *testing.T) {
	const token = "fleet-secret"
	var mu sync.Mutex
	vals := [2]string{"a0", "b0"}
	caches := make([]*rpc.ResponseCache, 2)
	servers := make([]*rpc.Server, 2)
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		i := i
		srv, ts := newBackend(t, "kv", func(srv *rpc.Server) {
			svc := kvDef(&vals[i], &mu).MustBuild()
			caches[i] = rpc.NewResponseCache(time.Minute, 64)
			svc.Use(caches[i].Middleware(rpc.OpPrefixes("get")))
			srv.Provider("").MustRegister(svc)
			srv.RegisterFlushCache("urn:test:kv", caches[i])
			srv.EnableCacheFlush(token)
		})
		servers[i], urls[i] = srv, ts.URL
	}

	gw := gateway.New("gw", "http://gw.local")
	gw.FlushToken = token
	if err := gw.Mount(urls[0], urls[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)

	// Warm every replica's cache with a direct read.
	iface := widgetContract(t, urls[0])
	for i := 0; i < 2; i++ {
		cl := core.NewClient(&soap.HTTPTransport{}, urls[i]+"/KVStore", iface)
		if _, err := cl.CallText("getValue"); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.CallText("getValue"); err != nil {
			t.Fatal(err)
		}
		hits, _, entries := caches[i].Stats()
		if hits != 1 || entries != 1 {
			t.Fatalf("replica %d cache not warm: hits=%d entries=%d", i, hits, entries)
		}
	}

	// One write through the gateway, to whichever replica the ring picks.
	gwClient := core.NewClient(gw.Loopback(), "http://gw.local/KVStore", iface)
	if _, err := gwClient.CallText("setValue", soap.Str("value", "new")); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if _, _, entries := caches[i].Stats(); entries != 0 {
			t.Errorf("replica %d cache still has %d entries after a fleet write", i, entries)
		}
	}
	// Exactly one replica handled the write (flushing itself); the other
	// was flushed through the control op.
	if total := servers[0].Flushes() + servers[1].Flushes(); total != 1 {
		t.Errorf("control-op flushes = %d, want 1", total)
	}
}

// widgetContract fetches a mounted service's contract from its published
// WSDL, as a gateway client would.
func widgetContract(t *testing.T, base string) *wsdl.Interface {
	t.Helper()
	resp, err := http.Get(base + "/KVStore?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if err := soap.ReadMessage(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	svc, err := wsdl.Parse(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	return svc.Interface
}

// TestHealthProbeOpensBreaker: failing health probes must open the
// backend's circuit — removing it from the healthy set — without any
// request traffic.
func TestHealthProbeOpensBreaker(t *testing.T) {
	_, a := batchBackend(t, "a")
	gw := gateway.New("gw", "http://gw.local")
	gw.Breakers = &resilience.BreakerSet{Config: resilience.BreakerConfig{
		FailureThreshold: 2, OpenFor: time.Minute,
	}}
	if err := gw.Mount(a.URL); err != nil {
		t.Fatal(err)
	}
	a.Close() // backend dies; /healthz now refuses connections
	gw.StartHealth(5 * time.Millisecond)
	defer gw.Close()

	deadline := time.Now().Add(5 * time.Second)
	for gw.Breakers.For(a.URL).State() != resilience.StateOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened on failed health probes")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// With no healthy backend, forwarding degrades to a typed
	// Unavailable fault with Retry-After, not a hang or a raw error.
	req := &soap.Call{ServiceNS: batchscript.ServiceNS, Method: "listSchedulers"}
	var body bytes.Buffer
	req.WireEnvelope().AppendTo(&body)
	rec := do(gw, http.MethodPost, "http://gw.local/ssp/BatchScriptGenerator", body.Bytes())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q", got)
	}
	f := parseFault(t, rec.Body.Bytes())
	pe := f.PortalError()
	if pe == nil || pe.Code != soap.ErrCodeUnavailable || pe.Service != "gw" {
		t.Errorf("portal error = %+v", pe)
	}
}
