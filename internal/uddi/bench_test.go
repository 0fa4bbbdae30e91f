package uddi

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/core"
	"repro/internal/soap"
)

// BenchmarkClientXMLDecode measures the typed client's decode of a large
// XML-typed answer: FindServiceByTModel over 192 services through the
// in-process loopback, so the client path is most of what it times.
func BenchmarkClientXMLDecode(b *testing.B) {
	r := NewRegistry()
	p := core.NewProvider("registry-ssp", "loopback://uddi")
	p.MustRegister(NewService(r))
	cl := NewClient(p.Loopback(), "loopback://uddi/UDDIRegistry")
	bk, err := cl.SaveBusiness("SDSC", "HotPage group")
	if err != nil {
		b.Fatal(err)
	}
	tmk, err := cl.SaveTModel("gce:BatchScriptGenerator", "common interface", "http://x/bsg.wsdl")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 192; i++ {
		if _, err := cl.SaveService(bk, fmt.Sprintf("BSG %03d", i), DescribeCapabilities("", []string{"PBS", "LSF"}),
			fmt.Sprintf("http://host%d.example.edu/soap/bsg", i), []string{tmk}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := cl.FindServiceByTModel(tmk)
		if err != nil || len(found) != 192 {
			b.Fatalf("found %d services, %v", len(found), err)
		}
	}
}

// findCase is one BenchmarkFindServiceByTModel case: a find by tModel and
// its budget of allocations per call, which TestFindServiceByTModelAllocs
// enforces.
type findCase struct {
	name   string
	find   func(tModelKey string) []*BusinessService
	allocs float64
}

// byTModelFinds publishes 8192 services over 64 tModels, so each find
// answers 128 services, and returns the finds with the tModel keys. index
// is FindServiceByTModel; scan is its test oracle, a range over every
// service shard, with the same deep copy of the answer.
func byTModelFinds(tb testing.TB) ([]findCase, []string) {
	r, tms := byTModelRegistry(tb)
	return []findCase{
		{"index", r.FindServiceByTModel, 385},
		{"scan", func(tk string) []*BusinessService { return copyServices(scanByTModel(r, tk)) }, 392},
	}, tms
}

// byTModelRegistry publishes byTModelFinds' registry: 8192 services over
// 64 tModels, 128 under each. Names and descriptions each pick out 100
// services by substring: "user-service-001" and "q01" (the descriptions
// cycle through 82 mixed-case queue names). It returns the registry with
// the tModel keys.
func byTModelRegistry(tb testing.TB) (*Registry, []string) {
	r := NewRegistry()
	biz, err := r.SaveBusiness(BusinessEntity{Name: "Portal Users"})
	if err != nil {
		tb.Fatal(err)
	}
	var tms []string
	for i := 0; i < 64; i++ {
		tm, err := r.SaveTModel(TModel{Name: fmt.Sprintf("gce:UserInterface%02d", i)})
		if err != nil {
			tb.Fatal(err)
		}
		tms = append(tms, tm.Key)
	}
	for i := 0; i < 8192; i++ {
		if _, err := r.SaveService(BusinessService{
			BusinessKey: biz.Key,
			Name:        fmt.Sprintf("user-service-%05d", i),
			Description: fmt.Sprintf("Batch queue Q%02d", i%82),
			Bindings: []BindingTemplate{{AccessPoint: fmt.Sprintf("http://node%03d.example.org/ssp", i%509),
				TModelKeys: []string{tms[i%len(tms)]}}},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return r, tms
}

// BenchmarkFindServiceByTModel times one find by tModel over 8192
// services, 128 in each answer, from the index and from a scan.
func BenchmarkFindServiceByTModel(b *testing.B) {
	cases, tms := byTModelFinds(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if got := c.find(tms[i%len(tms)]); len(got) != 128 {
					b.Fatalf("found %d services, want 128", len(got))
				}
			}
		})
	}
}

// TestFindServiceByTModelAllocs holds BenchmarkFindServiceByTModel's
// cases to their allocation budgets.
func TestFindServiceByTModelAllocs(t *testing.T) {
	cases, tms := byTModelFinds(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			i := 0
			allocbudget.Check(t, c.allocs, func() {
				if got := c.find(tms[i%len(tms)]); len(got) != 128 {
					t.Fatalf("found %d services, want 128", len(got))
				}
				i++
			})
		})
	}
}

// answerAllocs is the budget of allocations per Provider.Serve call of
// each UDDI answer shape, which TestFindAnswerAllocs enforces: a find by
// tModel answering 128 services, finds by name and by description
// answering 100 each, and one service's detail.
var answerAllocs = map[string]float64{
	"findServiceByTModel": 5,
	"findService":         12,
	"findByDescription":   12,
	"getServiceDetail":    7,
}

// TestFindAnswerAllocs holds the registry service's answer encode, decode
// and handler included, to its allocation budget over byTModelFinds'
// registry.
func TestFindAnswerAllocs(t *testing.T) {
	r, tms := byTModelRegistry(t)
	p := core.NewProvider("registry-ssp", "loopback://uddi")
	p.MustRegister(NewService(r))
	svcKey := r.FindServiceByTModel(tms[0])[0].Key
	calls := []struct {
		method string
		params []soap.Value
		want   int // businessService elements in the answer
	}{
		{"findServiceByTModel", []soap.Value{soap.Str("tModelKey", tms[0])}, 128},
		{"findService", []soap.Value{soap.Str("businessKey", ""), soap.Str("name", "user-service-001")}, 100},
		{"findByDescription", []soap.Value{soap.Str("pattern", "q01")}, 100},
		{"getServiceDetail", []soap.Value{soap.Str("serviceKey", svcKey)}, 1},
	}
	for _, c := range calls {
		t.Run(c.method, func(t *testing.T) {
			var req, out bytes.Buffer
			(&soap.Call{ServiceNS: ServiceNS, Method: c.method, Params: c.params}).WireEnvelope().AppendTo(&req)
			allocbudget.Check(t, answerAllocs[c.method], func() {
				out.Reset()
				if err := p.Serve(context.Background(), req.Bytes(), &out); err != nil {
					t.Fatalf("%v: %s", err, out.Bytes())
				}
			})
			if got := bytes.Count(out.Bytes(), []byte("<businessService ")); got != c.want {
				t.Fatalf("answer carries %d services, want %d", got, c.want)
			}
		})
	}
}
