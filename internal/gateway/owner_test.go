package gateway_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batchscript"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/uddi"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

// kvNode is one backend hosting a stateful key-value service (a cached
// read beside a write) and the stateless BatchScriptGenerator.
type kvNode struct {
	ts    *httptest.Server
	calls atomic.Int64 // KVStore handler runs, reads and writes alike

	mu  sync.Mutex
	val string
}

func kvBackend(t *testing.T, name string) *kvNode {
	t.Helper()
	n := &kvNode{}
	_, n.ts = newBackend(t, name, func(srv *rpc.Server) {
		svc := n.def().MustBuild()
		cache := rpc.NewResponseCache(time.Minute, 64)
		svc.Use(cache.Middleware(rpc.OpPrefixes("get")))
		srv.Provider("").MustRegister(svc)
		srv.Provider("/ssp").MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
	})
	return n
}

func (n *kvNode) def() *rpc.Def {
	return &rpc.Def{
		Name: "KVStore", NS: "urn:test:kv",
		Ops: []rpc.Op{
			{
				Name: "getValue", Out: []wsdl.Param{rpc.Str("value")}, Idempotent: true,
				Handle: func(_ *core.Context, _ rpc.Args) ([]interface{}, error) {
					n.calls.Add(1)
					n.mu.Lock()
					defer n.mu.Unlock()
					return rpc.Ret(n.val), nil
				},
			},
			{
				Name: "setValue", In: []wsdl.Param{rpc.Str("value")}, Out: []wsdl.Param{rpc.Str("ok")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					n.calls.Add(1)
					n.mu.Lock()
					defer n.mu.Unlock()
					n.val = in.Str("value")
					return rpc.Ret("ok"), nil
				},
			},
		},
	}
}

// TestReadYourWritesThroughGateway: every read of a stateful service
// through the gateway sees the write before it, even though the read's
// answer is cached and the write's body differs from the read's.
func TestReadYourWritesThroughGateway(t *testing.T) {
	a, b := kvBackend(t, "a"), kvBackend(t, "b")
	gw := newGateway(t, a.ts.URL, b.ts.URL)
	cl := core.NewClient(gw.Loopback(), "http://gw.local/KVStore", widgetContract(t, a.ts.URL))
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("v%d", i)
		if _, err := cl.CallText("setValue", soap.Str("value", want)); err != nil {
			t.Fatal(err)
		}
		got, err := cl.CallText("getValue")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: read %q after writing %q", i, got, want)
		}
	}
	if a.calls.Load() != 0 && b.calls.Load() != 0 {
		t.Errorf("both backends ran KVStore handlers (%d, %d); want one owner", a.calls.Load(), b.calls.Load())
	}
}

// TestUDDISaveThenFindOverHTTP: a business published through the gateway
// over real HTTP is found by the next inquiry through it.
func TestUDDISaveThenFindOverHTTP(t *testing.T) {
	var urls []string
	for _, name := range []string{"a", "b"} {
		_, ts := newBackend(t, name, func(srv *rpc.Server) {
			svc := uddi.NewService(uddi.NewRegistry())
			cache := rpc.NewResponseCache(time.Minute, 64)
			svc.Use(cache.Middleware(rpc.OpPrefixes("find", "get")))
			srv.Provider("/uddi").MustRegister(svc)
		})
		urls = append(urls, ts.URL)
	}
	gw := newGateway(t, urls...)
	front := httptest.NewServer(gw.Handler())
	t.Cleanup(front.Close)
	endpoint := front.URL + "/uddi/UDDIRegistry"
	publisher := uddi.NewClient(&soap.HTTPTransport{}, endpoint)
	inquirer := core.NewClient(&soap.HTTPTransport{}, endpoint, uddi.Contract())
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("rw-biz-%d", i)
		if _, err := publisher.SaveBusiness(name, "read-your-writes probe"); err != nil {
			t.Fatal(err)
		}
		found := 0
		err := inquirer.CallXML(t.Context(), "findBusiness", func(list *xmlutil.Element) error {
			for _, be := range list.ChildrenNamed("businessEntity") {
				if be.ChildText("name") == name {
					found++
				}
			}
			return nil
		}, soap.Str("name", name))
		if err != nil {
			t.Fatal(err)
		}
		if found != 1 {
			t.Fatalf("round %d: findBusiness(%q) found it %d times after saveBusiness", i, name, found)
		}
	}
}

// TestOwnerDownStatefulUnavailable: with a stateful route's owner down,
// its reads and writes both answer the typed Unavailable fault with
// Retry-After — none is served by the other replica, whose store never
// saw the owner's writes — while a stateless route fails over.
func TestOwnerDownStatefulUnavailable(t *testing.T) {
	a, b := kvBackend(t, "a"), kvBackend(t, "b")
	gw := newGateway(t, a.ts.URL, b.ts.URL)
	cl := core.NewClient(gw.Loopback(), "http://gw.local/KVStore", widgetContract(t, a.ts.URL))
	if _, err := cl.CallText("setValue", soap.Str("value", "v")); err != nil {
		t.Fatal(err)
	}
	owner, survivor := a, b
	if a.calls.Load() == 0 {
		owner, survivor = b, a
	}
	if owner.calls.Load() != 1 || survivor.calls.Load() != 0 {
		t.Fatalf("write ran %d and %d times; want once, on one backend", owner.calls.Load(), survivor.calls.Load())
	}
	owner.ts.Close()

	var set, get bytes.Buffer
	(&soap.Call{ServiceNS: "urn:test:kv", Method: "setValue", Params: []soap.Value{soap.Str("value", "w")}}).WireEnvelope().AppendTo(&set)
	(&soap.Call{ServiceNS: "urn:test:kv", Method: "getValue"}).WireEnvelope().AppendTo(&get)
	// Failed forwards first, then the owner's open circuit.
	for i := 0; i < 5; i++ {
		for _, body := range [][]byte{set.Bytes(), get.Bytes()} {
			rec := do(gw, http.MethodPost, "http://gw.local/KVStore", body)
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("attempt %d: status %d\n%s", i, rec.Code, rec.Body.Bytes())
			}
			if got := rec.Header().Get("Retry-After"); got != "1" {
				t.Errorf("attempt %d: Retry-After = %q", i, got)
			}
			pe := parseFault(t, rec.Body.Bytes()).PortalError()
			if pe == nil || pe.Code != soap.ErrCodeUnavailable || pe.Service != "gw" {
				t.Errorf("attempt %d: portal error = %+v", i, pe)
			}
		}
	}
	if n := survivor.calls.Load(); n != 0 {
		t.Errorf("survivor ran the stateful handler %d times", n)
	}

	rec := do(gw, http.MethodPost, "http://gw.local/ssp/BatchScriptGenerator", golden(t, "batchscript.req.xml"))
	if rec.Code != http.StatusOK {
		t.Fatalf("stateless route with the owner down: status %d\n%s", rec.Code, rec.Body.Bytes())
	}
	if want := golden(t, "batchscript.resp.xml"); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("stateless response diverges from golden\n got: %s\nwant: %s", rec.Body.Bytes(), want)
	}
}

// TestStatelessRouteSpreadsByBody: on a route whose operations are all
// idempotent the request body picks the replica, so varied requests
// reach both backends.
func TestStatelessRouteSpreadsByBody(t *testing.T) {
	var served [2]atomic.Int64
	var urls []string
	for i, name := range []string{"a", "b"} {
		count := func(next core.HandlerFunc) core.HandlerFunc {
			return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
				served[i].Add(1)
				return next(ctx, args)
			}
		}
		_, ts := newBackend(t, name, func(srv *rpc.Server) {
			srv.Provider("/ssp", count).MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
		})
		urls = append(urls, ts.URL)
	}
	gw := newGateway(t, urls...)
	for i := 0; i < 40; i++ {
		call := &soap.Call{ServiceNS: batchscript.ServiceNS, Method: "generateScript", Params: []soap.Value{
			soap.Str("scheduler", "PBS"), soap.Str("jobName", fmt.Sprintf("job-%d", i)),
			soap.Str("executable", "/bin/date"), soap.Int("nodes", 1), soap.Int("wallTimeSeconds", 60),
		}}
		var body bytes.Buffer
		call.WireEnvelope().AppendTo(&body)
		if rec := do(gw, http.MethodPost, "http://gw.local/ssp/BatchScriptGenerator", body.Bytes()); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d\n%s", i, rec.Code, rec.Body.Bytes())
		}
	}
	if served[0].Load() == 0 || served[1].Load() == 0 {
		t.Fatalf("requests served %d and %d; want both backends used", served[0].Load(), served[1].Load())
	}
}
