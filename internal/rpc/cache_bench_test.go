package rpc_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/uddi"
)

// BenchmarkResponseCache serves a cached UDDI findServiceByTModel whose
// answer lists 128 services, through Provider.Serve: "hit" answers from
// the cache, "miss" flushes it first, so each call runs the handler and
// stores its answer. Run with -benchmem; allocs/op and B/op are the
// cache's cost per answer.
func BenchmarkResponseCache(b *testing.B) {
	r := uddi.NewRegistry()
	biz, err := r.SaveBusiness(uddi.BusinessEntity{Name: "SDSC", Description: "HotPage group"})
	if err != nil {
		b.Fatal(err)
	}
	tm, err := r.SaveTModel(uddi.TModel{Name: "gce:BatchScriptGenerator", Description: "common interface",
		OverviewURL: "http://x/bsg.wsdl"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if _, err := r.SaveService(uddi.BusinessService{
			BusinessKey: biz.Key,
			Name:        fmt.Sprintf("BSG %03d", i),
			Description: uddi.DescribeCapabilities("", []string{"PBS", "LSF"}),
			Bindings: []uddi.BindingTemplate{{AccessPoint: fmt.Sprintf("http://host%d.example.edu/soap/bsg", i),
				TModelKeys: []string{tm.Key}}},
		}); err != nil {
			b.Fatal(err)
		}
	}
	svc := uddi.NewService(r)
	cache := rpc.NewResponseCache(time.Minute, 64)
	svc.Use(cache.Middleware(rpc.OpPrefixes("find", "get")))
	p := core.NewProvider("registry-ssp", "loopback://uddi")
	p.MustRegister(svc)

	var req, out bytes.Buffer
	call := soap.Call{ServiceNS: uddi.Contract().TargetNS, Method: "findServiceByTModel",
		Params: []soap.Value{soap.Str("tModelKey", tm.Key)}}
	call.WireEnvelope().AppendTo(&req)
	serve := func(b *testing.B) {
		out.Reset()
		if err := p.Serve(context.Background(), req.Bytes(), &out); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		serve(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b)
		}
		b.SetBytes(int64(out.Len()))
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache.Flush()
			serve(b)
		}
		b.SetBytes(int64(out.Len()))
	})
}
