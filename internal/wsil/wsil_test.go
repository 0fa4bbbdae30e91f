package wsil

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden WSIL documents under testdata/")

func TestDocumentRoundTrip(t *testing.T) {
	d := &Document{
		Services: []ServiceEntry{
			{Name: "Batch Script Generator", Abstract: "Generates queue scripts", WSDLLocation: "http://x/bsg?wsdl"},
			{Name: "Globusrun", WSDLLocation: "http://x/globusrun?wsdl"},
		},
		Links: []Link{{Location: "http://y/inspection.wsil", Abstract: "SDSC services"}},
	}
	parsed, err := Parse(d.Render())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Services) != 2 {
		t.Fatalf("services = %d", len(parsed.Services))
	}
	if parsed.Services[0].Name != "Batch Script Generator" || parsed.Services[0].WSDLLocation != "http://x/bsg?wsdl" {
		t.Errorf("service[0] = %+v", parsed.Services[0])
	}
	if parsed.Services[0].Abstract != "Generates queue scripts" {
		t.Errorf("abstract = %q", parsed.Services[0].Abstract)
	}
	if len(parsed.Links) != 1 || parsed.Links[0].Location != "http://y/inspection.wsil" {
		t.Errorf("links = %+v", parsed.Links)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("<wrongroot/>"); err == nil {
		t.Error("wrong root accepted")
	}
	if _, err := Parse("garbage <"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPublisherHTTP(t *testing.T) {
	p := NewPublisher()
	p.AddService(ServiceEntry{Name: "SRB", WSDLLocation: "http://s/srb?wsdl"})
	srv := httptest.NewServer(p)
	defer srv.Close()
	body, err := FetchHTTP(srv.Client())(srv.URL + WellKnownPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Services) != 1 || doc.Services[0].Name != "SRB" {
		t.Errorf("doc = %+v", doc)
	}
}

func TestCrawlAggregation(t *testing.T) {
	// Three providers: A links to B and C; B links back to A (cycle).
	docs := map[string]*Document{
		"a": {
			Services: []ServiceEntry{{Name: "A1", WSDLLocation: "http://a/1?wsdl"}},
			Links:    []Link{{Location: "b"}, {Location: "c"}},
		},
		"b": {
			Services: []ServiceEntry{{Name: "B1", WSDLLocation: "http://b/1?wsdl"}},
			Links:    []Link{{Location: "a"}},
		},
		"c": {
			Services: []ServiceEntry{{Name: "C1", WSDLLocation: "http://c/1?wsdl"}, {Name: "C2", WSDLLocation: "http://c/2?wsdl"}},
		},
	}
	fetch := func(url string) (string, error) {
		d, ok := docs[url]
		if !ok {
			return "", fmt.Errorf("no doc %q", url)
		}
		return d.Render(), nil
	}
	entries, err := Crawl("a", 5, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4 (cycle must not duplicate)", len(entries))
	}
	if entries[0].Name != "A1" || entries[3].Name != "C2" {
		t.Errorf("entries = %+v", entries)
	}
}

func TestCrawlDepthLimit(t *testing.T) {
	docs := map[string]*Document{
		"root": {Links: []Link{{Location: "deep"}}},
		"deep": {Services: []ServiceEntry{{Name: "D"}}},
	}
	fetch := func(url string) (string, error) { return docs[url].Render(), nil }
	entries, err := Crawl("root", 0, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("depth 0 crawl returned %d entries", len(entries))
	}
}

func TestCrawlFetchError(t *testing.T) {
	fetch := func(url string) (string, error) { return "", fmt.Errorf("unreachable") }
	if _, err := Crawl("x", 2, fetch); err == nil {
		t.Error("fetch error swallowed")
	}
}

// TestAppendToMatchesGolden pins the WSIL byte format: AppendTo and Render
// must reproduce the golden documents under testdata/ on empty,
// service-only, link-only, and mixed documents. Regenerate after an
// intentional format change with:
//
//	go test ./internal/wsil -run TestAppendToMatchesGolden -update
func TestAppendToMatchesGolden(t *testing.T) {
	docs := map[string]*Document{
		"empty": {},
		"services": {Services: []ServiceEntry{
			{Name: "Batch & Script", Abstract: "scripts <fast>", WSDLLocation: "http://x/bsg?wsdl"},
			{WSDLLocation: "http://x/anon?wsdl"},
		}},
		"links": {Links: []Link{{Location: "http://other/inspection.wsil", Abstract: "peer"}}},
		"mixed": {
			Services: []ServiceEntry{{Name: "S", WSDLLocation: "http://s?wsdl"}},
			Links:    []Link{{Location: "http://l"}},
		},
	}
	for name, d := range docs {
		var streamed bytes.Buffer
		d.AppendTo(&streamed)
		path := filepath.Join("testdata", name+".wsil")
		if *update {
			if err := os.WriteFile(path, streamed.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (re-run with -update): %v", path, err)
		}
		if streamed.String() != string(want) {
			t.Errorf("%s: AppendTo diverges from %s\n got: %s\nwant: %s", name, path, streamed.String(), want)
		}
		if d.Render() != string(want) {
			t.Errorf("%s: Render diverges from %s", name, path)
		}
		if _, err := Parse(streamed.String()); err != nil {
			t.Errorf("%s: streamed WSIL does not parse: %v", name, err)
		}
	}
}
