package xmlregistry

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/soap"
)

func seed(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.Put("portals/iu/bsg", "service", []Property{
		{Name: "interface", Value: "gce:BatchScriptGenerator"},
		{Name: "endpoint", Value: "http://gateway.iu.edu/soap/bsg"},
		{Name: "supportedScheduler", Value: "PBS"},
		{Name: "supportedScheduler", Value: "GRD"},
	}))
	must(r.Put("portals/sdsc/bsg", "service", []Property{
		{Name: "interface", Value: "gce:BatchScriptGenerator"},
		{Name: "endpoint", Value: "http://hotpage.sdsc.edu/soap/bsg"},
		{Name: "supportedScheduler", Value: "LSF"},
		{Name: "supportedScheduler", Value: "NQS"},
	}))
	must(r.Put("portals/iu/notes", "document", []Property{
		{Name: "text", Value: "users migrating away from PBS"},
	}))
	return r
}

func TestCreateAndGet(t *testing.T) {
	r := seed(t)
	c, err := r.Get("portals/iu/bsg")
	if err != nil {
		t.Fatal(err)
	}
	if c.Type != "service" {
		t.Errorf("type = %q", c.Type)
	}
	if v, _ := c.Prop("endpoint"); v != "http://gateway.iu.edu/soap/bsg" {
		t.Errorf("endpoint = %q", v)
	}
	if scheds := c.PropAll("supportedScheduler"); len(scheds) != 2 || scheds[1] != "GRD" {
		t.Errorf("schedulers = %v", scheds)
	}
	// Intermediate containers exist with generic type.
	mid, err := r.Get("portals/iu")
	if err != nil {
		t.Fatal(err)
	}
	if mid.Type != "container" {
		t.Errorf("intermediate type = %q", mid.Type)
	}
	if len(mid.Children()) != 2 {
		t.Errorf("iu children = %d", len(mid.Children()))
	}
}

func TestPathErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Create("", "x"); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := r.Create("a//b", "x"); err == nil {
		t.Error("empty segment accepted")
	}
	if _, err := r.Get("missing/path"); err == nil {
		t.Error("missing path returned")
	}
	if err := r.Delete("missing"); err == nil {
		t.Error("delete of missing path accepted")
	}
}

func TestTypeConflict(t *testing.T) {
	r := seed(t)
	if _, err := r.Create("portals/iu/bsg", "document"); err == nil {
		t.Error("type conflict accepted")
	}
	if _, err := r.Create("portals/iu/bsg", "service"); err != nil {
		t.Errorf("same-type create should be idempotent: %v", err)
	}
}

func TestDeleteSubtree(t *testing.T) {
	r := seed(t)
	if err := r.Delete("portals/iu"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("portals/iu/bsg"); err == nil {
		t.Error("subtree survived delete")
	}
	matches, err := r.Find(Query{Type: "service"})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Path != "portals/sdsc/bsg" {
		t.Errorf("matches after delete = %v", matches)
	}
}

// TestTypedQueryPrecision is the core of the S3.4 discovery experiment: a
// typed query for NQS support returns exactly the SDSC service and is not
// fooled by the notes document that merely mentions PBS.
func TestTypedQueryPrecision(t *testing.T) {
	r := seed(t)
	matches, err := r.Find(Query{
		Type:       "service",
		PropEquals: []Property{{Name: "supportedScheduler", Value: "NQS"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Path != "portals/sdsc/bsg" {
		t.Fatalf("NQS matches = %v", matches)
	}
	// PBS: typed query excludes the mention-only document.
	matches, err = r.Find(Query{
		Type:       "service",
		PropEquals: []Property{{Name: "supportedScheduler", Value: "PBS"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Path != "portals/iu/bsg" {
		t.Fatalf("PBS matches = %v", matches)
	}
}

func TestQueryUnderAndHasProp(t *testing.T) {
	r := seed(t)
	matches, err := r.Find(Query{Under: "portals/iu", Type: "service"})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Path != "portals/iu/bsg" {
		t.Errorf("under iu = %v", matches)
	}
	matches, err = r.Find(Query{HasProp: "endpoint"})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Errorf("hasProp endpoint = %d", len(matches))
	}
	if _, err := r.Find(Query{Under: "nowhere"}); err == nil {
		t.Error("query under missing path accepted")
	}
}

func TestEmptyQueryMatchesAll(t *testing.T) {
	r := seed(t)
	matches, err := r.Find(Query{})
	if err != nil {
		t.Fatal(err)
	}
	// portals, portals/iu, portals/sdsc, 3 leaves = 6 containers.
	if len(matches) != 6 {
		t.Errorf("all containers = %d, want 6", len(matches))
	}
	// Sorted by path.
	for i := 1; i < len(matches); i++ {
		if matches[i-1].Path > matches[i].Path {
			t.Errorf("matches unsorted: %q > %q", matches[i-1].Path, matches[i].Path)
		}
	}
}

func TestExportImport(t *testing.T) {
	r := seed(t)
	doc := r.Export()
	if !strings.Contains(doc, "supportedScheduler") {
		t.Fatalf("export missing properties:\n%s", doc)
	}
	r2 := NewRegistry()
	if err := r2.Import(doc); err != nil {
		t.Fatal(err)
	}
	c, err := r2.Get("portals/sdsc/bsg")
	if err != nil {
		t.Fatal(err)
	}
	if scheds := c.PropAll("supportedScheduler"); len(scheds) != 2 || scheds[0] != "LSF" {
		t.Errorf("imported schedulers = %v", scheds)
	}
	if err := r2.Import("garbage"); err == nil {
		t.Error("garbage import accepted")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	r := seed(t)
	c, _ := r.Get("portals/iu/bsg")
	c.SetProp("tampered", "yes")
	c2, _ := r.Get("portals/iu/bsg")
	if _, ok := c2.Prop("tampered"); ok {
		t.Error("Get returned aliased container")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = r.Put("a/b/c"+string(rune('0'+i)), "service", []Property{{Name: "n", Value: "v"}})
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, _ = r.Find(Query{Type: "service"})
			}
		}()
	}
	wg.Wait()
	matches, _ := r.Find(Query{Type: "service"})
	if len(matches) != 8 {
		t.Errorf("services = %d, want 8", len(matches))
	}
}

func TestSOAPServiceRoundTrip(t *testing.T) {
	r := NewRegistry()
	p := core.NewProvider("reg-ssp", "loopback://reg")
	p.MustRegister(NewService(r))
	cl := NewClient(p.Loopback(), "loopback://reg/XMLRegistry")

	err := cl.Put("portals/iu/bsg", "service", []Property{
		{Name: "supportedScheduler", Value: "PBS"},
		{Name: "endpoint", Value: "http://iu/bsg"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.Get("portals/iu/bsg")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Prop("endpoint"); v != "http://iu/bsg" {
		t.Errorf("endpoint = %q", v)
	}
	matches, err := cl.Find(Query{Type: "service", PropEquals: []Property{{Name: "supportedScheduler", Value: "PBS"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Path != "portals/iu/bsg" {
		t.Errorf("matches = %v", matches)
	}
	if err := cl.Delete("portals/iu/bsg"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("portals/iu/bsg"); soap.AsPortalError(err) == nil {
		t.Errorf("expected portal error after delete, got %v", err)
	}
	if err := cl.Delete("portals/iu/bsg"); err == nil {
		t.Error("double delete accepted")
	}
}

// TestInPlaceResultsSurviveReuse keeps one Get and one Find answer, then
// makes 60 more calls with different answers through the same client,
// which recycles the pooled response arena and message buffer. The kept
// answers must still equal the registry's: decoders copy only strings out
// of the arena.
func TestInPlaceResultsSurviveReuse(t *testing.T) {
	r := NewRegistry()
	p := core.NewProvider("reg-ssp", "loopback://reg")
	p.MustRegister(NewService(r))
	cl := NewClient(p.Loopback(), "loopback://reg/XMLRegistry")

	var paths []string
	for i := 0; i < 6; i++ {
		for j := 0; j <= i; j++ {
			path := fmt.Sprintf("portals/site%d/svc%d", i, j)
			err := cl.Put(path, "service", []Property{
				{Name: "supportedScheduler", Value: []string{"PBS", "LSF"}[j%2]},
				{Name: "endpoint", Value: fmt.Sprintf("http://site%d.example.edu/<%d>&%d", i, j, j)},
			})
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
	}
	query := Query{Type: "service", PropEquals: []Property{{Name: "supportedScheduler", Value: "LSF"}}}

	keptGet, err := cl.Get("portals/site4")
	if err != nil {
		t.Fatal(err)
	}
	keptFind, err := cl.Find(query)
	if err != nil || len(keptFind) != 9 {
		t.Fatalf("kept find = %d matches, %v", len(keptFind), err)
	}
	for i := 0; i < 60; i++ {
		if i%2 == 0 {
			_, err = cl.Get(paths[i%len(paths)])
		} else {
			_, err = cl.Find(Query{Under: fmt.Sprintf("portals/site%d", i%6)})
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	want, err := r.Get("portals/site4")
	if err != nil || !reflect.DeepEqual(keptGet, want) {
		t.Errorf("kept get changed:\n got %+v\nwant %+v (%v)", keptGet, want, err)
	}
	wantFind, err := r.Find(query)
	if err != nil || !reflect.DeepEqual(keptFind, wantFind) {
		t.Errorf("kept find changed:\n got %+v\nwant %+v (%v)", keptFind, wantFind, err)
	}
}

// cannedTransport answers every round trip with one fixed response body.
type cannedTransport string

func (t cannedTransport) RoundTripRawCtx(_ context.Context, _, _ string, _ *soap.Envelope, resp *bytes.Buffer) error {
	resp.WriteString(string(t))
	return nil
}

// TestFindSkipsMatchWithoutContainer feeds the client a find answer whose
// first match carries no container: the client must skip it, not
// dereference a missing element.
func TestFindSkipsMatchWithoutContainer(t *testing.T) {
	body := `<?xml version="1.0" encoding="UTF-8"?><e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>` +
		`<r:findResponse xmlns:r="urn:gce:xmlregistry"><matches><matches>` +
		`<match path="a/b"><note/></match>` +
		`<match path="a/c"><container name="c" type="service"/></match>` +
		`</matches></matches></r:findResponse></e:Body></e:Envelope>`
	cl := NewClient(cannedTransport(body), "canned://reg/XMLRegistry")
	matches, err := cl.Find(Query{Type: "service"})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Path != "a/c" || matches[0].Container.Name != "c" {
		t.Errorf("matches = %+v", matches)
	}
}
