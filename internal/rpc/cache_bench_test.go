package rpc_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/allocbudget"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/uddi"
	"repro/internal/xmlregistry"
	"repro/internal/xmlutil"
)

// cacheCase is one BenchmarkResponseCache case: a call and its budget of
// allocations per call, which TestResponseCacheAllocs enforces.
type cacheCase struct {
	name   string
	op     func() error
	allocs float64
}

// cachedFind serves a cached UDDI findServiceByTModel whose answer lists
// 128 services, through Provider.Serve, and out holds the last answer.
// Each case's warm-up calls put the cache in the state its calls repeat:
//   - "hit" answers from the cache;
//   - "cold first miss" flushes the cache first; from its second call
//     on, that flush drops the key's entry unread, so the call runs the
//     handler and stores nothing;
//   - "second miss" finds its entry expired after a miss since the last
//     flush, so the call runs the handler and stores its answer;
//   - "xml query hit" answers an xmlregistry find from the cache, the hit
//     whose key holds an XML-typed parameter (cachedQuery).
func cachedFind(tb testing.TB) (cases []cacheCase, out *bytes.Buffer) {
	r := uddi.NewRegistry()
	biz, err := r.SaveBusiness(uddi.BusinessEntity{Name: "SDSC", Description: "HotPage group"})
	if err != nil {
		tb.Fatal(err)
	}
	tm, err := r.SaveTModel(uddi.TModel{Name: "gce:BatchScriptGenerator", Description: "common interface",
		OverviewURL: "http://x/bsg.wsdl"})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if _, err := r.SaveService(uddi.BusinessService{
			BusinessKey: biz.Key,
			Name:        fmt.Sprintf("BSG %03d", i),
			Description: uddi.DescribeCapabilities("", []string{"PBS", "LSF"}),
			Bindings: []uddi.BindingTemplate{{AccessPoint: fmt.Sprintf("http://host%d.example.edu/soap/bsg", i),
				TModelKeys: []string{tm.Key}}},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	svc := uddi.NewService(r)
	cache := rpc.NewResponseCache(time.Minute, 64)
	now := time.Unix(0, 0)
	cache.SetClock(func() time.Time { return now })
	svc.Use(cache.Middleware(rpc.OpPrefixes("find", "get")))
	p := core.NewProvider("registry-ssp", "loopback://uddi")
	p.MustRegister(svc)

	var req bytes.Buffer
	out = new(bytes.Buffer)
	call := soap.Call{ServiceNS: uddi.Contract().TargetNS, Method: "findServiceByTModel",
		Params: []soap.Value{soap.Str("tModelKey", tm.Key)}}
	call.WireEnvelope().AppendTo(&req)
	hit := func() error {
		out.Reset()
		return p.Serve(context.Background(), req.Bytes(), out)
	}
	coldMiss := func() error {
		cache.Flush()
		return hit()
	}
	secondMiss := func() error {
		now = now.Add(2 * time.Minute)
		return hit()
	}
	return []cacheCase{{"hit", hit, 2}, {"cold first miss", coldMiss, 6}, {"second miss", secondMiss, 10},
		cachedQuery(tb, out)}, out
}

// cachedQuery serves a cached xmlregistry find through Provider.Serve into
// out. Its query parameter is XML-typed and shaped like the one discovery
// sends, so the response cache keys it by the query's canonical form.
func cachedQuery(tb testing.TB, out *bytes.Buffer) cacheCase {
	r := xmlregistry.NewRegistry()
	for j := 0; j < 8; j++ {
		if err := r.Put(fmt.Sprintf("site-03/svc-%04d", j), "service", []xmlregistry.Property{
			{Name: "kind", Value: fmt.Sprintf("kind-%d", j%4)},
			{Name: "host", Value: fmt.Sprintf("node%03d.site03.example.org", j)},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	svc := xmlregistry.NewService(r)
	cache := rpc.NewResponseCache(time.Minute, 64)
	svc.Use(cache.Middleware(rpc.OpPrefixes("find", "get")))
	p := core.NewProvider("registry-ssp", "loopback://registry")
	p.MustRegister(svc)

	query := xmlutil.New("query")
	query.AddText("type", "service")
	query.AddText("under", "site-03")
	query.Add(xmlutil.NewText("propEquals", "kind-1").SetAttr("name", "kind"))
	var req bytes.Buffer
	call := soap.Call{ServiceNS: xmlregistry.Contract().TargetNS, Method: "find",
		Params: []soap.Value{soap.XMLDoc("query", query)}}
	call.WireEnvelope().AppendTo(&req)
	hit := func() error {
		out.Reset()
		return p.Serve(context.Background(), req.Bytes(), out)
	}
	// The first call stores the answer and the second must hit it.
	for i := 0; i < 2; i++ {
		if err := hit(); err != nil {
			tb.Fatal(err)
		}
	}
	if hits, _, _ := cache.Stats(); hits != 1 || !bytes.Contains(out.Bytes(), []byte(`path="site-03/svc-0001"`)) {
		tb.Fatalf("xml query: %d hits, answer %s", hits, out.Bytes())
	}
	return cacheCase{"xml query hit", hit, 6}
}

// BenchmarkResponseCache times cachedFind's cases. Run with -benchmem;
// allocs/op and B/op are the cache's cost per answer.
func BenchmarkResponseCache(b *testing.B) {
	cases, out := cachedFind(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if err := c.op(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.op(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(out.Len()))
		})
	}
}

// TestResponseCacheAllocs holds BenchmarkResponseCache's cases to their
// allocation budgets.
func TestResponseCacheAllocs(t *testing.T) {
	cases, _ := cachedFind(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocbudget.Check(t, c.allocs, func() {
				if err := c.op(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
