package uddi

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/soap"
)

func seedRegistry(t *testing.T) (*Registry, string, string) {
	t.Helper()
	r := NewRegistry()
	iu, _ := r.SaveBusiness(BusinessEntity{Name: "IU Community Grids Lab", Description: "Gateway portal group"})
	sdsc, _ := r.SaveBusiness(BusinessEntity{Name: "SDSC", Description: "HotPage portal group"})
	tm, _ := r.SaveTModel(TModel{Name: "gce:BatchScriptGenerator", OverviewURL: "http://iu/bsg.wsdl"})
	_, err := r.SaveService(BusinessService{
		BusinessKey: iu.Key,
		Name:        "IU Batch Script Generator",
		Description: DescribeCapabilities("Gateway script service.", []string{"PBS", "GRD"}),
		Bindings:    []BindingTemplate{{AccessPoint: "http://gateway.iu.edu/soap/bsg", TModelKeys: []string{tm.Key}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.SaveService(BusinessService{
		BusinessKey: sdsc.Key,
		Name:        "SDSC Batch Script Generator",
		Description: DescribeCapabilities("HotPage script service.", []string{"LSF", "NQS"}),
		Bindings:    []BindingTemplate{{AccessPoint: "http://hotpage.sdsc.edu/soap/bsg", TModelKeys: []string{tm.Key}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, iu.Key, tm.Key
}

func TestPublishAndFind(t *testing.T) {
	r, iuKey, tmKey := seedRegistry(t)
	if b, s, tm := func() (int, int, int) { return countsOf(r) }(); b != 2 || s != 2 || tm != 1 {
		t.Errorf("counts = %d %d %d", b, s, tm)
	}
	businesses := r.FindBusiness("sdsc")
	if len(businesses) != 1 || businesses[0].Name != "SDSC" {
		t.Errorf("FindBusiness = %v", businesses)
	}
	all := r.FindService("", "")
	if len(all) != 2 {
		t.Fatalf("all services = %d", len(all))
	}
	iuOnly := r.FindService(iuKey, "")
	if len(iuOnly) != 1 || !strings.HasPrefix(iuOnly[0].Name, "IU") {
		t.Errorf("iu services = %v", iuOnly)
	}
	byTM := r.FindServiceByTModel(tmKey)
	if len(byTM) != 2 {
		t.Errorf("by tModel = %d", len(byTM))
	}
	byName := r.FindService("", "batch script")
	if len(byName) != 2 {
		t.Errorf("by name = %d", len(byName))
	}
}

func countsOf(r *Registry) (int, int, int) { return r.Counts() }

func TestKeysDeterministicAndUnique(t *testing.T) {
	r1, _, _ := seedRegistry(t)
	r2, _, _ := seedRegistry(t)
	s1 := r1.FindService("", "")
	s2 := r2.FindService("", "")
	if s1[0].Key != s2[0].Key {
		t.Error("keys not deterministic across identical publish sequences")
	}
	if s1[0].Key == s1[1].Key {
		t.Error("distinct services share a key")
	}
	if !strings.HasPrefix(s1[0].Key, "uuid:") {
		t.Errorf("key format = %q", s1[0].Key)
	}
}

func TestSaveServiceValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.SaveService(BusinessService{BusinessKey: "uuid:none", Name: "x"}); err == nil {
		t.Error("unknown businessKey accepted")
	}
	b, _ := r.SaveBusiness(BusinessEntity{Name: "IU"})
	if _, err := r.SaveService(BusinessService{
		BusinessKey: b.Key, Name: "x",
		Bindings: []BindingTemplate{{AccessPoint: "http://x", TModelKeys: []string{"uuid:ghost"}}},
	}); err == nil {
		t.Error("unknown tModel accepted")
	}
}

func TestDeleteService(t *testing.T) {
	r, _, _ := seedRegistry(t)
	all := r.FindService("", "")
	if err := r.DeleteService(all[0].Key); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteService(all[0].Key); err == nil {
		t.Error("double delete accepted")
	}
	if left := r.FindService("", ""); len(left) != 1 {
		t.Errorf("services after delete = %d", len(left))
	}
}

func TestGetters(t *testing.T) {
	r, iuKey, tmKey := seedRegistry(t)
	if _, err := r.GetBusiness(iuKey); err != nil {
		t.Error(err)
	}
	if _, err := r.GetBusiness("uuid:none"); err == nil {
		t.Error("unknown business accepted")
	}
	if _, err := r.GetTModel(tmKey); err != nil {
		t.Error(err)
	}
	if _, err := r.GetTModel("uuid:none"); err == nil {
		t.Error("unknown tModel accepted")
	}
	svc := r.FindService("", "")[0]
	got, err := r.GetServiceDetail(svc.Key)
	if err != nil || got.Name != svc.Name {
		t.Errorf("detail = %v, %v", got, err)
	}
	if _, err := r.GetServiceDetail("uuid:none"); err == nil {
		t.Error("unknown service accepted")
	}
	if _, ok := r.TModelByName("gce:BatchScriptGenerator"); !ok {
		t.Error("TModelByName missed")
	}
	if _, ok := r.TModelByName("nope"); ok {
		t.Error("TModelByName false positive")
	}
}

// TestSaveResultIsCallersCopy pins the immutability of published records:
// editing what SaveBusiness or SaveTModel returned must not reach the
// registry.
func TestSaveResultIsCallersCopy(t *testing.T) {
	r := NewRegistry()
	b, err := r.SaveBusiness(BusinessEntity{Name: "SDSC", Description: "stored"})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := r.SaveTModel(TModel{Name: "gce:Globusrun", OverviewURL: "http://stored/wsdl"})
	if err != nil {
		t.Fatal(err)
	}
	b.Name, b.Description = "edited", "edited"
	tm.Name, tm.OverviewURL = "edited", "edited"
	if got, err := r.GetBusiness(b.Key); err != nil || got.Name != "SDSC" || got.Description != "stored" {
		t.Errorf("GetBusiness after editing the saved result = %+v, %v", got, err)
	}
	if got, err := r.GetTModel(tm.Key); err != nil || got.Name != "gce:Globusrun" || got.OverviewURL != "http://stored/wsdl" {
		t.Errorf("GetTModel after editing the saved result = %+v, %v", got, err)
	}
}

func TestCapabilityConvention(t *testing.T) {
	desc := DescribeCapabilities("Gateway script service.", []string{"PBS", "GRD"})
	caps := ParseCapabilities(desc)
	if len(caps) != 2 || caps[0] != "PBS" || caps[1] != "GRD" {
		t.Errorf("caps = %v", caps)
	}
	if ParseCapabilities("no convention here") != nil {
		t.Error("phantom capabilities")
	}
	if got := DescribeCapabilities("", []string{"LSF"}); got != "schedulers: LSF" {
		t.Errorf("bare convention = %q", got)
	}
	multi := "line one\nschedulers: NQS, LSF\nline three"
	caps = ParseCapabilities(multi)
	if len(caps) != 2 || caps[0] != "NQS" {
		t.Errorf("multiline caps = %v", caps)
	}
	for _, tc := range []struct {
		desc string
		want []string
	}{
		{"SCHEDULERS: PBS", []string{"PBS"}},
		{"Batch queue. ScHeDuLeRs:GRD,,LSF ", []string{"GRD", "LSF"}},
		// Ⱥ (2 bytes) lowers to ⱥ (3 bytes): a search of the lowered
		// copy found the prefix three bytes late in the first and past
		// the end of the second.
		{"ȺȺȺ schedulers: PBS,LSF", []string{"PBS", "LSF"}},
		{"Ⱥ schedulers:", nil},
		// Only ASCII letters fold: ſ (long s) is not an s.
		{"\u017fchedulers: PBS", nil},
	} {
		if got := ParseCapabilities(tc.desc); !slices.Equal(got, tc.want) {
			t.Errorf("ParseCapabilities(%q) = %q, want %q", tc.desc, got, tc.want)
		}
	}
}

// TestConventionFalsePositive reproduces the paper's UDDI weakness: naive
// description search returns services that merely mention a scheduler.
func TestConventionFalsePositive(t *testing.T) {
	r, iuKey, _ := seedRegistry(t)
	_, err := r.SaveService(BusinessService{
		BusinessKey: iuKey,
		Name:        "Legacy Notes Service",
		Description: "Documentation for users migrating away from PBS to other systems.",
	})
	if err != nil {
		t.Fatal(err)
	}
	naive := r.FindByConvention("PBS")
	if len(naive) != 2 {
		t.Errorf("naive search found %d services, expected 2 (one false positive)", len(naive))
	}
	parsed := r.FindByParsedConvention("PBS")
	if len(parsed) != 1 || !strings.HasPrefix(parsed[0].Name, "IU") {
		t.Errorf("parsed search = %v", parsed)
	}
	// And the parsed search misses services that deviate from the
	// convention entirely.
	_, err = r.SaveService(BusinessService{
		BusinessKey: iuKey,
		Name:        "Nonconforming Script Service",
		Description: "Supports the PBS queuing system.",
	})
	if err != nil {
		t.Fatal(err)
	}
	parsed = r.FindByParsedConvention("PBS")
	if len(parsed) != 1 {
		t.Errorf("parsed search should miss nonconforming publisher, got %d", len(parsed))
	}
}

func TestConcurrentPublishAndQuery(t *testing.T) {
	r := NewRegistry()
	b, _ := r.SaveBusiness(BusinessEntity{Name: "IU"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, _ = r.SaveService(BusinessService{BusinessKey: b.Key, Name: "svc"})
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.FindService("", "svc")
			}
		}()
	}
	wg.Wait()
	if _, s, _ := r.Counts(); s != 400 {
		t.Errorf("services = %d, want 400", s)
	}
}

func TestSOAPServiceRoundTrip(t *testing.T) {
	r := NewRegistry()
	p := core.NewProvider("registry-ssp", "loopback://uddi")
	p.MustRegister(NewService(r))
	tr := p.Loopback()
	cl := NewClient(tr, "loopback://uddi/UDDIRegistry")

	bk, err := cl.SaveBusiness("SDSC", "HotPage group")
	if err != nil {
		t.Fatal(err)
	}
	tmk, err := cl.SaveTModel("gce:BatchScriptGenerator", "common interface", "http://x/bsg.wsdl")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := cl.SaveService(bk, "SDSC BSG",
		DescribeCapabilities("", []string{"LSF", "NQS"}), "http://sdsc/soap/bsg", []string{tmk})
	if err != nil {
		t.Fatal(err)
	}

	found, err := cl.FindServiceByTModel(tmk)
	if err != nil || len(found) != 1 {
		t.Fatalf("by tModel = %v, %v", found, err)
	}
	if found[0].Bindings[0].AccessPoint != "http://sdsc/soap/bsg" {
		t.Errorf("accessPoint = %q", found[0].Bindings[0].AccessPoint)
	}
	if caps := ParseCapabilities(found[0].Description); len(caps) != 2 {
		t.Errorf("caps over the wire = %v", caps)
	}

	byDesc, err := cl.FindByDescription("NQS")
	if err != nil || len(byDesc) != 1 {
		t.Errorf("by description = %v, %v", byDesc, err)
	}

	detail, err := cl.GetServiceDetail(sk)
	if err != nil || detail.Name != "SDSC BSG" {
		t.Errorf("detail = %v, %v", detail, err)
	}

	tm, err := cl.GetTModel(tmk)
	if err != nil || tm.OverviewURL != "http://x/bsg.wsdl" {
		t.Errorf("tModel = %v, %v", tm, err)
	}

	byName, err := cl.FindService("", "BSG")
	if err != nil || len(byName) != 1 {
		t.Errorf("find by name = %v, %v", byName, err)
	}

	if err := cl.DeleteService(sk); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteService(sk); err == nil {
		t.Error("double delete over SOAP accepted")
	}
	if _, err := cl.GetServiceDetail(sk); err == nil {
		t.Error("deleted service still retrievable")
	}
}

func TestSOAPServiceErrors(t *testing.T) {
	r := NewRegistry()
	p := core.NewProvider("registry-ssp", "loopback://uddi")
	p.MustRegister(NewService(r))
	cl := NewClient(p.Loopback(), "loopback://uddi/UDDIRegistry")
	_, err := cl.SaveService("uuid:ghost", "x", "", "http://x", nil)
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeBadRequest {
		t.Errorf("err = %v", err)
	}
	if _, err := cl.GetTModel("uuid:ghost"); soap.AsPortalError(err) == nil {
		t.Errorf("err = %v", err)
	}
}

// TestInPlaceResultsSurviveReuse keeps one decoded answer of each XML-typed
// read, then makes 60 more calls with different answers through the same
// client, which recycles the pooled response arena and message buffer.
// The kept answers must still equal the registry's: decoders copy only
// strings out of the arena.
func TestInPlaceResultsSurviveReuse(t *testing.T) {
	r := NewRegistry()
	p := core.NewProvider("registry-ssp", "loopback://uddi")
	p.MustRegister(NewService(r))
	cl := NewClient(p.Loopback(), "loopback://uddi/UDDIRegistry")

	bk, err := cl.SaveBusiness("SDSC", "HotPage group")
	if err != nil {
		t.Fatal(err)
	}
	var tmodels, services []string
	for i := 0; i < 4; i++ {
		tmk, err := cl.SaveTModel(fmt.Sprintf("gce:iface%d", i), "interface", "http://x/iface.wsdl")
		if err != nil {
			t.Fatal(err)
		}
		tmodels = append(tmodels, tmk)
		for j := 0; j <= 3*i; j++ {
			sk, err := cl.SaveService(bk, fmt.Sprintf("svc-%d-%02d", i, j),
				fmt.Sprintf("scheduler=PBS <%d> & %d", i, j),
				fmt.Sprintf("http://host%d.example.edu/soap/%d", i, j), []string{tmk, tmodels[0]})
			if err != nil {
				t.Fatal(err)
			}
			services = append(services, sk)
		}
	}

	kept, err := cl.FindServiceByTModel(tmodels[2])
	if err != nil || len(kept) != 7 {
		t.Fatalf("kept find = %d services, %v", len(kept), err)
	}
	keptDetail, err := cl.GetServiceDetail(services[3])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if i%2 == 0 {
			_, err = cl.FindServiceByTModel(tmodels[i/2%len(tmodels)])
		} else {
			_, err = cl.GetServiceDetail(services[i%len(services)])
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	if want := r.FindServiceByTModel(tmodels[2]); !reflect.DeepEqual(kept, want) {
		t.Errorf("kept find answer changed:\n got %+v\nwant %+v", kept, want)
	}
	want, err := r.GetServiceDetail(services[3])
	if err != nil || !reflect.DeepEqual(keptDetail, want) {
		t.Errorf("kept detail changed:\n got %+v\nwant %+v (%v)", keptDetail, want, err)
	}
}
