package xmlutil

import (
	"bytes"
	"testing"

	"repro/internal/allocbudget"
)

// writerTrees are representative shapes of every dialect the repository
// serialises: namespace reuse and shadowing, attribute namespaces,
// escaping, self-closing elements, deep nesting.
func writerTrees() map[string]*Element {
	soapish := NewNS("urn:env", "Envelope")
	body := NewNS("urn:env", "Body")
	op := NewNS("urn:svc", "opResponse")
	op.SetAttrNS("urn:env", "encodingStyle", "urn:enc")
	ret := New("result")
	ret.SetAttrNS("urn:xsi", "type", "xsd:string")
	ret.Text = "hello & <world>"
	ret2 := New("count")
	ret2.SetAttrNS("urn:xsi", "type", "xsd:int")
	ret2.Text = "42"
	op.Add(ret, ret2)
	body.Add(op)
	soapish.Add(body)

	deep := New("d0")
	cur := deep
	for i := 0; i < 40; i++ {
		next := NewNS("urn:deep", "d")
		cur.Add(next)
		cur = next
	}
	cur.Text = "bottom"

	attrs := New("a")
	attrs.SetAttr("plain", `quote " tab	end`)
	attrs.SetAttr("nl", "line1\nline2\rline3")
	attrs.SetAttrNS("urn:one", "x", "1")
	attrs.SetAttrNS("urn:two", "y", "2")
	attrs.AddText("empty", "")

	resue := New("root")
	resue.Add(NewNS("urn:a", "first"))
	resue.Add(NewNS("urn:a", "second")) // same URI re-declared: new prefix number
	inner := NewNS("urn:b", "outer")
	inner.Add(NewNS("urn:b", "inner")) // same URI still in scope: no re-declaration
	resue.Add(inner)

	return map[string]*Element{
		"soapish":     soapish,
		"deep":        deep,
		"attrs":       attrs,
		"nsreuse":     resue,
		"lone":        New("lone"),
		"textonly":    NewText("t", "a]]>b"),
		"unicodetext": NewText("u", "日本語 & ü"),
	}
}

// TestWriterElementMatchesRenderTo checks that a caller-owned Writer and
// the pooled one behind RenderTo write the same bytes, and that a pooled
// Writer starts clean: every tree is rendered twice in a row.
func TestWriterElementMatchesRenderTo(t *testing.T) {
	for name, tree := range writerTrees() {
		var want, got bytes.Buffer
		tree.RenderTo(&want)
		tree.RenderTo(&want)
		w := NewWriter(&got)
		w.Element(tree)
		if w.Depth() != 0 {
			t.Fatalf("%s: writer left %d open elements", name, w.Depth())
		}
		w.Reset(&got)
		w.Element(tree)
		if got.String() != want.String() {
			t.Errorf("%s: writer output differs\nwriter: %s\nrender: %s", name, got.String(), want.String())
		}
	}
}

func TestWriterStreamedEvents(t *testing.T) {
	var b bytes.Buffer
	w := AcquireWriter(&b)
	w.Raw("<?xml version=\"1.0\"?>\n")
	w.Start("urn:env", "Envelope")
	w.Start("urn:env", "Body")
	w.Start("urn:svc", "op")
	w.Attr("urn:env", "encodingStyle", "urn:enc")
	w.Start("", "arg")
	w.Attr("urn:xsi", "type", "xsd:string")
	w.Text("v<1>")
	w.End()
	w.Start("", "none")
	w.End()
	w.End()
	w.End()
	w.End()
	w.Release()
	want := `<?xml version="1.0"?>` + "\n" +
		`<ns0:Envelope xmlns:ns0="urn:env"><ns0:Body>` +
		`<ns1:op ns0:encodingStyle="urn:enc" xmlns:ns1="urn:svc">` +
		`<arg ns2:type="xsd:string" xmlns:ns2="urn:xsi">v&lt;1&gt;</arg>` +
		`<none/>` +
		`</ns1:op></ns0:Body></ns0:Envelope>`
	if b.String() != want {
		t.Fatalf("streamed output:\n got %s\nwant %s", b.String(), want)
	}
}

// TestWriterPrefixNumbering pins the prefix-numbering behaviour the wire
// format depends on: a namespace declared, forgotten, and needed again
// gets a fresh number (the counter never rewinds).
func TestWriterPrefixNumbering(t *testing.T) {
	root := New("r")
	a := New("a")
	a.SetAttrNS("urn:x", "t", "1")
	b := New("b")
	b.SetAttrNS("urn:x", "t", "2")
	root.Add(a, b)
	const want = `<r><a ns0:t="1" xmlns:ns0="urn:x"/><b ns1:t="2" xmlns:ns1="urn:x"/></r>`
	if got := root.Render(); got != want {
		t.Fatalf("prefix numbering diverged:\n got %s\nwant %s", got, want)
	}
}

func TestWriterReuseAfterReset(t *testing.T) {
	var b1, b2 bytes.Buffer
	w := NewWriter(&b1)
	w.Start("urn:x", "a")
	w.End()
	w.Reset(&b2)
	w.Start("urn:y", "b")
	w.End()
	if b2.String() != `<ns0:b xmlns:ns0="urn:y"/>` {
		t.Fatalf("reset did not clear prefix state: %s", b2.String())
	}
}

func TestWriterPanicsOnMisuse(t *testing.T) {
	for name, fn := range map[string]func(w *Writer){
		"attr-after-content": func(w *Writer) {
			w.Start("", "a")
			w.Text("x")
			w.Attr("", "b", "c")
		},
		"end-without-start": func(w *Writer) { w.End() },
		"text-outside":      func(w *Writer) { w.Text("x") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			var b bytes.Buffer
			fn(NewWriter(&b))
		})
	}
}

// discoveryQuery is the xmlregistry query discovery sends on a find: four
// elements and no namespace. The response cache keys each such find by the
// query's Canonical form.
func discoveryQuery() *Element {
	q := New("query")
	q.AddText("type", "service")
	q.AddText("under", "site-03")
	q.Add(NewText("propEquals", "kind-1").SetAttr("name", "kind"))
	return q
}

// canonicalSink keeps the compiler from dropping the measured Canonical.
var canonicalSink string

// renderCase is one tree encode measured by BenchmarkRender and held to
// its allocation budget by TestRenderAllocs.
type renderCase struct {
	name   string
	allocs float64
	op     func(b *bytes.Buffer)
}

func renderCases() []renderCase {
	env := writerTrees()["soapish"]
	query := discoveryQuery()
	return []renderCase{
		{"RenderTo/envelope", 0, func(b *bytes.Buffer) {
			b.Reset()
			env.RenderTo(b)
		}},
		// The string Canonical returns; the tree is written in place.
		{"Canonical/query", 1, func(*bytes.Buffer) { canonicalSink = query.Canonical() }},
	}
}

func BenchmarkRender(b *testing.B) {
	for _, c := range renderCases() {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.op(&buf)
			}
		})
	}
}

// TestRenderAllocs holds each renderCase to its budget.
func TestRenderAllocs(t *testing.T) {
	for _, c := range renderCases() {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			allocbudget.Check(t, c.allocs, func() { c.op(&buf) })
		})
	}
}

// TestRenderIndent pins RenderIndent's layout: an element without
// children on one line, otherwise its text and children each on their own
// line one level deeper, and namespaces declared where first used.
func TestRenderIndent(t *testing.T) {
	root := NewNS("urn:a", "root")
	root.Text = "intro & more"
	item := New("item")
	item.SetAttrNS("urn:b", "kind", `"x"`)
	item.Add(NewText("name", "a<b"), New("empty"))
	root.Add(item, NewNS("urn:a", "tail"))
	const want = `<ns0:root xmlns:ns0="urn:a">
  intro &amp; more
  <item ns1:kind="&quot;x&quot;" xmlns:ns1="urn:b">
    <name>a&lt;b</name>
    <empty/>
  </item>
  <ns0:tail/>
</ns0:root>
`
	if got := root.RenderIndent(); got != want {
		t.Errorf("RenderIndent:\n got %q\nwant %q", got, want)
	}
}
