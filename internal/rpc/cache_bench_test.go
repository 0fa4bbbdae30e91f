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
)

// cacheCase is one BenchmarkResponseCache case: a call and its budget of
// allocations per call, which TestResponseCacheAllocs enforces.
type cacheCase struct {
	name   string
	op     func() error
	allocs float64
}

// cachedFind serves a cached UDDI findServiceByTModel whose answer lists
// 128 services, through Provider.Serve: "hit" answers from the cache;
// "miss" flushes it first, so each call runs the handler and stores its
// answer. out holds the last answer.
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
	miss := func() error {
		cache.Flush()
		return hit()
	}
	return []cacheCase{{"hit", hit, 6}, {"miss", miss, 1814}}, out
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
