package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

func xmlContract() *wsdl.Interface {
	return &wsdl.Interface{
		Name:     "Trees",
		TargetNS: "urn:test:trees",
		Operations: []wsdl.Operation{
			{Name: "grow", Input: []wsdl.Param{{Name: "name", Type: "string"}},
				Output: []wsdl.Param{{Name: "tree", Type: "xml"}}},
			{Name: "fail", Output: []wsdl.Param{{Name: "never", Type: "string"}}},
		},
	}
}

func xmlProviderClient() *Client {
	p := NewProvider("trees-ssp", "loopback://trees")
	svc := NewService(xmlContract()).
		Handle("grow", func(_ *Context, args soap.Args) ([]soap.Value, error) {
			el := xmlutil.New("tree").SetAttr("name", args.String("name"))
			el.AddText("leaf", "green")
			return []soap.Value{soap.XMLDoc("tree", el)}, nil
		}).
		Handle("fail", func(_ *Context, _ soap.Args) ([]soap.Value, error) {
			return nil, soap.NewPortalError("Trees", soap.ErrCodeResourceFull, "forest full")
		})
	p.MustRegister(svc)
	return NewClient(p.Loopback(), "loopback://trees/Trees", xmlContract())
}

func TestCallPooled(t *testing.T) {
	c := xmlProviderClient()
	resp, release, err := c.Call(context.Background(), "grow", soap.Str("name", "oak"))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := resp.Return("tree")
	if !ok || v.XML == nil {
		t.Fatal("no XML return")
	}
	// Strings extracted from the pooled tree stay valid past release.
	name, _ := v.XML.Attr("name")
	leaf := v.XML.ChildText("leaf")
	release()
	if name != "oak" || leaf != "green" {
		t.Fatalf("extracted strings wrong after release: name=%q leaf=%q", name, leaf)
	}
}

// TestCallPooledFaultDetached pins that a fault returned from the pooled
// path stays usable after the arena is recycled: the detail trees are
// detached before release.
func TestCallPooledFaultDetached(t *testing.T) {
	c := xmlProviderClient()
	_, release, err := c.Call(context.Background(), "fail")
	if err == nil {
		t.Fatal("expected fault")
	}
	release() // must be a safe no-op on the error path
	pe := soap.AsPortalError(err)
	if pe == nil {
		t.Fatalf("portal error not relayed: %v", err)
	}
	if pe.Code != soap.ErrCodeResourceFull || !strings.Contains(pe.Message, "forest full") {
		t.Fatalf("detached portal error wrong: %+v", pe)
	}
}
