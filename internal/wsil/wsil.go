// Package wsil implements the Web Services Inspection Language (WSIL), the
// lightweight decentralized discovery alternative the paper lists alongside
// UDDI in Section 2. A WSIL document is published at a well-known location
// on a provider and enumerates its services with links to their WSDL
// descriptions; aggregated inspection documents link to other inspection
// documents, forming the decentralized web UDDI centralises.
package wsil

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"repro/internal/xmlutil"
)

// Namespace URIs used by WS-Inspection documents.
const (
	InspectionNS = "http://schemas.xmlsoap.org/ws/2001/10/inspection/"
	WSDLRefNS    = "http://schemas.xmlsoap.org/ws/2001/10/inspection/wsdl/"
)

// WellKnownPath is the conventional location of a provider's inspection
// document.
const WellKnownPath = "/inspection.wsil"

// ServiceEntry describes one service in an inspection document.
type ServiceEntry struct {
	// Name is the human-readable service name.
	Name string
	// Abstract is a short description.
	Abstract string
	// WSDLLocation points at the service's WSDL document.
	WSDLLocation string
}

// Link points at another inspection document (aggregation).
type Link struct {
	// Location is the URL of the linked inspection document.
	Location string
	// Abstract describes the linked provider.
	Abstract string
}

// Document is a WS-Inspection document.
type Document struct {
	// Services listed by this provider.
	Services []ServiceEntry
	// Links to other inspection documents.
	Links []Link
}

// AppendTo streams the inspection document (XML declaration included)
// into b through the Writer. The golden documents under testdata/ pin its
// bytes (TestAppendToMatchesGolden).
func (d *Document) AppendTo(b *bytes.Buffer) {
	w := xmlutil.AcquireWriter(b)
	defer w.Release()
	w.Raw(`<?xml version="1.0"?>` + "\n")
	w.Start(InspectionNS, "inspection")
	for _, s := range d.Services {
		w.Start(InspectionNS, "service")
		if s.Name != "" {
			w.Start(InspectionNS, "name")
			w.Text(s.Name)
			w.End()
		}
		if s.Abstract != "" {
			w.Start(InspectionNS, "abstract")
			w.Text(s.Abstract)
			w.End()
		}
		w.Start(InspectionNS, "description")
		w.Attr("", "referencedNamespace", WSDLRefNS)
		w.Attr("", "location", s.WSDLLocation)
		w.End()
		w.End()
	}
	for _, l := range d.Links {
		w.Start(InspectionNS, "link")
		w.Attr("", "referencedNamespace", InspectionNS)
		w.Attr("", "location", l.Location)
		if l.Abstract != "" {
			w.Start(InspectionNS, "abstract")
			w.Text(l.Abstract)
			w.End()
		}
		w.End()
	}
	w.End()
}

// Render serialises the document with an XML declaration, streamed
// through the direct-to-buffer writer.
func (d *Document) Render() string {
	b := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(b)
	d.AppendTo(b)
	return b.String()
}

// Parse reads an inspection document.
func Parse(doc string) (*Document, error) {
	root, err := xmlutil.ParseString(doc)
	if err != nil {
		return nil, fmt.Errorf("wsil: %w", err)
	}
	if root.Name != "inspection" {
		return nil, fmt.Errorf("wsil: root element %q is not inspection", root.Name)
	}
	out := &Document{}
	for _, svc := range root.ChildrenNamed("service") {
		entry := ServiceEntry{
			Name:     svc.ChildText("name"),
			Abstract: svc.ChildText("abstract"),
		}
		if desc := svc.Child("description"); desc != nil {
			entry.WSDLLocation = desc.AttrDefault("location", "")
		}
		out.Services = append(out.Services, entry)
	}
	for _, link := range root.ChildrenNamed("link") {
		out.Links = append(out.Links, Link{
			Location: link.AttrDefault("location", ""),
			Abstract: link.ChildText("abstract"),
		})
	}
	return out, nil
}

// Publisher serves a provider's inspection document over HTTP and lets
// services register dynamically as they deploy.
type Publisher struct {
	mu  sync.RWMutex
	doc Document
}

// NewPublisher returns an empty publisher.
func NewPublisher() *Publisher {
	return &Publisher{}
}

// AddService registers a service entry.
func (p *Publisher) AddService(e ServiceEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doc.Services = append(p.doc.Services, e)
}

// AddLink registers a link to another provider's inspection document.
func (p *Publisher) AddLink(l Link) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doc.Links = append(p.doc.Links, l)
}

// Document returns a snapshot of the current inspection document.
func (p *Publisher) Document() *Document {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cp := Document{
		Services: append([]ServiceEntry(nil), p.doc.Services...),
		Links:    append([]Link(nil), p.doc.Links...),
	}
	return &cp
}

// ServeHTTP serves the inspection document.
func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = io.WriteString(w, p.Document().Render())
}

// Crawl fetches an inspection document from startURL and follows links
// transitively (up to maxDepth), returning every service entry found. The
// fetch function abstracts HTTP so tests can crawl in-process; pass
// FetchHTTP for real use.
func Crawl(startURL string, maxDepth int, fetch func(url string) (string, error)) ([]ServiceEntry, error) {
	seen := map[string]bool{}
	var out []ServiceEntry
	var walk func(url string, depth int) error
	walk = func(url string, depth int) error {
		if seen[url] || depth > maxDepth {
			return nil
		}
		seen[url] = true
		body, err := fetch(url)
		if err != nil {
			return fmt.Errorf("wsil: crawl %s: %w", url, err)
		}
		doc, err := Parse(body)
		if err != nil {
			return fmt.Errorf("wsil: crawl %s: %w", url, err)
		}
		out = append(out, doc.Services...)
		for _, l := range doc.Links {
			if err := walk(l.Location, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(startURL, 0); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// FetchHTTP is the production fetch function for Crawl.
func FetchHTTP(hc *http.Client) func(url string) (string, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	return func(url string) (string, error) {
		resp, err := hc.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		return string(body), err
	}
}
