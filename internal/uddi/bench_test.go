package uddi

import (
	"fmt"
	"testing"

	"repro/internal/core"
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
