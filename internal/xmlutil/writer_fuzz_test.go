package xmlutil

import (
	"bytes"
	"testing"
)

// FuzzWriterVsRender differentially fuzzes the streaming Writer against
// the tree renderer as oracle: any document the scanner accepts is
// rebuilt as a tree, then serialised both ways — Element.RenderTo and
// Writer.Element — and the two byte streams must be identical. Because
// FuzzParseRoundTrip already proves Render output re-parses into an equal
// tree, byte equality here extends the same trust chain to the Writer:
// everything the wire dialects emit through it is pinned to the tree
// renderer's format. The seeds cover the constructs the SOAP/WSDL/WSIL
// hot paths exercise: namespace declaration, shadowing and re-declaration,
// CDATA, predefined and numeric entities, attribute escaping, and deep
// nesting.
func FuzzWriterVsRender(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<ns0:Envelope xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/"><ns0:Body><ns1:opResponse xmlns:ns1="urn:bench"><a ns2:type="xsd:string" xmlns:ns2="http://www.w3.org/2001/XMLSchema-instance">hello</a></ns1:opResponse></ns0:Body></ns0:Envelope>`,
		`<p:a xmlns:p="urn:1"><p:b xmlns:p="urn:2"/><q:c/></p:a>`,
		`<a xmlns="urn:default"><b/><c xmlns="urn:other"/></a>`,
		`<d><![CDATA[a < b && c]]></d>`,
		"<d a=\"x&#xA;y\">A&#65;&amp;&lt;&gt;&quot;&apos;</d>",
		`<d attr="quote &quot; tab &#9; nl &#10; cr &#13;">t</d>`,
		`<a><b><c><d><e><f><g><h>deep</h></g></f></e></d></c></b></a>`,
		`<doc väl="ü"><名前>日本語</名前></doc>`,
		`<m><x t="1"/><y t="2"/><x t="3"/></m>`,
		`<entries><entry name="a" size="12" owner="u"/><entry name="b" size="0" owner="u"/></entries>`,
		`<a>x]]&gt;y</a>`,
		`<empty></empty>`,
		"<d>line1\r\nline2\rline3</d>",
		`<d>&#13;</d>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		tree, err := ParseBytes(data)
		if err != nil {
			return // not a parseable document: nothing to serialise
		}

		var want bytes.Buffer
		tree.RenderTo(&want)

		var got bytes.Buffer
		w := AcquireWriter(&got)
		w.Element(tree)
		depth := w.Depth()
		w.Release()
		if depth != 0 {
			t.Fatalf("writer left %d open elements on %q", depth, data)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("writer diverges from tree renderer on %q:\nwriter: %s\nrender: %s",
				data, got.Bytes(), want.Bytes())
		}

		// The streamed form must also re-parse into the same tree whenever
		// the rendered form does (renderable names), closing the loop with
		// FuzzParseRoundTrip's round-trip invariant.
		if renderableNames(tree) {
			again, err := ParseBytes(got.Bytes())
			if err != nil {
				t.Fatalf("re-parse of writer output failed on %q: %v", data, err)
			}
			if !again.Equal(tree) {
				t.Fatalf("writer round trip mismatch on %q", data)
			}
		}
	})
}
