package xmlutil

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// writerSeeds are the fuzz seeds of FuzzWriterVsRender and FuzzCanonical:
// the constructs the SOAP/WSDL/WSIL paths exercise, namely namespace
// declaration, shadowing and re-declaration, CDATA, predefined and numeric
// entities, attribute escaping, carriage returns and deep nesting.
var writerSeeds = []string{
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

// FuzzWriterVsRender fuzzes the package's one encoder, the Writer, against
// encoding/xml as the reader of what it writes: any document both the
// scanner and the encoding/xml reference (referenceParse) accept is
// rebuilt as a tree, streamed through a pooled Writer with Writer.Element,
// and read back by both parsers, each of which must return the tree it
// started from. Render and RenderTo are that same Writer, so this also
// covers every tree rendered anywhere in the repository; the golden wire
// suite in internal/rpc pins the bytes themselves.
func FuzzWriterVsRender(f *testing.F) {
	for _, s := range writerSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		tree, err := ParseBytes(data)
		if err != nil || !renderableNames(tree) {
			return // nothing to write, or names no writer can express
		}
		if _, err := referenceParse(bytes.NewReader(data)); err != nil {
			return // a construct FuzzParseRoundTrip tolerates encoding/xml rejecting
		}

		var got bytes.Buffer
		w := AcquireWriter(&got)
		w.Element(tree)
		depth := w.Depth()
		w.Release()
		if depth != 0 {
			t.Fatalf("writer left %d open elements on %q", depth, data)
		}

		ref, err := referenceParse(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("encoding/xml rejects the writer's output for %q: %v\noutput: %s", data, err, got.Bytes())
		}
		if !ref.Equal(tree) {
			t.Fatalf("encoding/xml reads a different tree from the writer's output for %q:\noutput: %s", data, got.Bytes())
		}
		again, err := ParseBytes(got.Bytes())
		if err != nil {
			t.Fatalf("re-parse of writer output failed on %q: %v", data, err)
		}
		if !again.Equal(tree) {
			t.Fatalf("writer round trip mismatch on %q", data)
		}
	})
}

// referenceCanonical is Canonical as it was written before it streamed:
// clone the tree, sort every element's attributes by (space, name) and
// trim its text in place, then render the copy. FuzzCanonical holds
// Canonical to it.
func referenceCanonical(e *Element) string {
	c := e.Clone()
	c.Walk(func(el *Element) bool {
		sort.Slice(el.Attrs, func(i, j int) bool {
			if el.Attrs[i].Space != el.Attrs[j].Space {
				return el.Attrs[i].Space < el.Attrs[j].Space
			}
			return el.Attrs[i].Name < el.Attrs[j].Name
		})
		el.Text = strings.TrimSpace(el.Text)
		return true
	})
	return c.Render()
}

// FuzzCanonical requires Canonical, which writes the tree in sorted order
// without copying it, to return referenceCanonical's bytes for any tree
// the scanner reads, and to leave the tree as it found it. An element
// with more than twelve attributes and a repeated (space, name) pair is
// skipped: sort.Slice is an insertion sort, and so stable, only up to
// twelve elements, and on such an element the reference's order is not
// defined.
func FuzzCanonical(f *testing.F) {
	for _, s := range writerSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(`<q b="2" xmlns:y="urn:b" y:a="1" a="0" xmlns:x="urn:a" x:b="3"> spaced <c z=" " a="&#13;"/>&#9;</q>`))
	// Two prefixes bound to one namespace give a repeated (space, name)
	// pair, whose document order the sort must keep.
	f.Add([]byte(`<q xmlns:x="urn:a" xmlns:y="urn:a" y:k="2" k="0" x:k="1" x:j="3"/>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		tree, err := ParseBytes(data)
		if err != nil || !stableSortable(tree) {
			return
		}
		before := tree.Clone()
		want := referenceCanonical(tree)
		if got := tree.Canonical(); got != want {
			t.Fatalf("Canonical of %q:\n got: %s\nwant: %s", data, got, want)
		}
		if !tree.Equal(before) {
			t.Fatalf("Canonical changed the tree of %q", data)
		}
	})
}

// stableSortable reports whether every element of the tree has at most
// twelve attributes or no repeated (space, name) pair.
func stableSortable(el *Element) bool {
	ok := true
	el.Walk(func(e *Element) bool {
		if len(e.Attrs) <= 12 {
			return true
		}
		seen := make(map[Attr]bool, len(e.Attrs))
		for _, a := range e.Attrs {
			k := Attr{Space: a.Space, Name: a.Name}
			if seen[k] {
				ok = false
				return false
			}
			seen[k] = true
		}
		return true
	})
	return ok
}
