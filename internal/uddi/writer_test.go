package uddi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/soap"
	"repro/internal/xmlutil"
)

// The element-tree forms of the registry's XML answers. The service
// writes its answers with xmlutil.Writer events instead; these trees are
// the oracle FuzzServiceListWriterVsTree holds the writers to.

// serviceElement is the tree of a businessService element.
func serviceElement(s *BusinessService) *xmlutil.Element {
	el := xmlutil.New("businessService").
		SetAttr("serviceKey", s.Key).
		SetAttr("businessKey", s.BusinessKey)
	el.AddText("name", s.Name)
	el.AddText("description", s.Description)
	for _, b := range s.Bindings {
		bt := xmlutil.New("bindingTemplate").SetAttr("bindingKey", b.Key)
		bt.AddText("accessPoint", b.AccessPoint)
		if b.Description != "" {
			bt.AddText("description", b.Description)
		}
		for _, tk := range b.TModelKeys {
			bt.AddText("tModelKey", tk)
		}
		el.Add(bt)
	}
	return el
}

// serviceList is the tree of a serviceList element.
func serviceList(services []*BusinessService) *xmlutil.Element {
	list := xmlutil.New("serviceList")
	for _, s := range services {
		list.Add(serviceElement(s))
	}
	return list
}

// tModelElement is the tree of a tModel element.
func tModelElement(t *TModel) *xmlutil.Element {
	el := xmlutil.New("tModel").SetAttr("tModelKey", t.Key)
	el.AddText("name", t.Name)
	el.AddText("description", t.Description)
	el.AddText("overviewURL", t.OverviewURL)
	return el
}

// businessList is the tree of a businessList element.
func businessList(businesses []*BusinessEntity) *xmlutil.Element {
	list := xmlutil.New("businessList")
	for _, b := range businesses {
		be := xmlutil.New("businessEntity").SetAttr("businessKey", b.Key)
		be.AddText("name", b.Name)
		be.AddText("description", b.Description)
		list.Add(be)
	}
	return list
}

// written returns what write puts on the wire.
func written(write func(*xmlutil.Writer)) string {
	var b bytes.Buffer
	write(xmlutil.NewWriter(&b))
	return b.String()
}

// FuzzServiceListWriterVsTree requires every answer writer to put on the
// wire exactly what its tree oracle renders: a service list, a single
// service, a tModel and a business list, built from arbitrary field
// strings (invalid UTF-8 and control bytes included) and arbitrary counts
// of bindings and tModel keys. The service list is also compared as a
// whole response envelope, the way the kernel encodes a written return
// beside a tree one.
func FuzzServiceListWriterVsTree(f *testing.F) {
	f.Add("uuid:s", "uuid:b", "BSG <alpha> & \"one\"", "line one\r\nline two", "http://a.example/?x=1&y=\"2\"", "primary\r\t<fast>", uint8(2), uint8(3))
	f.Add("", "", "", "", "", "", uint8(0), uint8(0))
	f.Add("k\x00\x01", "\xff\xfe", "]]>", "&amp;\x7f", "\"'<>&", "\xc3\x28", uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, key, bizKey, name, desc, access, bindingDesc string, bindings, tModelKeys uint8) {
		s := &BusinessService{Key: key, BusinessKey: bizKey, Name: name, Description: desc}
		for i := 0; i < int(bindings%6); i++ {
			b := BindingTemplate{Key: fmt.Sprintf("%s/%d", key, i), AccessPoint: access}
			if i%2 == 0 {
				b.Description = bindingDesc
			}
			for j := 0; j < (int(tModelKeys)+i)%5; j++ {
				b.TModelKeys = append(b.TModelKeys, fmt.Sprintf("%s%d", bindingDesc, j))
			}
			s.Bindings = append(s.Bindings, b)
		}
		// A second service with the fields moved round and no bindings,
		// and an empty one.
		services := []*BusinessService{s, {Key: bizKey, BusinessKey: key, Name: desc, Description: name}, {}}
		tm := &TModel{Key: key, Name: name, Description: desc, OverviewURL: access}
		businesses := []*BusinessEntity{{Key: key, Name: name, Description: desc}, {Key: bizKey, Name: bindingDesc}}

		for _, c := range []struct {
			what  string
			write func(*xmlutil.Writer)
			tree  *xmlutil.Element
		}{
			{"service list", serviceListWriter(services), serviceList(services)},
			{"empty service list", serviceListWriter(nil), serviceList(nil)},
			{"service", func(w *xmlutil.Writer) { writeService(w, s) }, serviceElement(s)},
			{"tModel", func(w *xmlutil.Writer) { writeTModel(w, tm) }, tModelElement(tm)},
			{"business list", func(w *xmlutil.Writer) { writeBusinessList(w, businesses) }, businessList(businesses)},
		} {
			if got, want := written(c.write), c.tree.Render(); got != want {
				t.Fatalf("%s: writer and tree disagree\nwriter: %q\ntree:   %q", c.what, got, want)
			}
		}

		byWriter := soap.Response{ServiceNS: ServiceNS, Method: "findService",
			Returns: []soap.Value{{Name: "serviceList", WriteXML: serviceListWriter(services)}}}
		byTree := soap.Response{ServiceNS: ServiceNS, Method: "findService",
			Returns: []soap.Value{soap.XMLDoc("serviceList", serviceList(services))}}
		if got, want := byWriter.WireEnvelope().Render(), byTree.WireEnvelope().Render(); got != want {
			t.Fatalf("response envelopes disagree\nwriter: %q\ntree:   %q", got, want)
		}
	})
}
