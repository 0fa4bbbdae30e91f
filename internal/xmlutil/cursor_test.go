package xmlutil

import (
	"slices"
	"strings"
	"testing"
)

// walkCursor drains a cursor into a flat token trace, comparing every
// element and text against the tree parse of the same document — the
// cursor's correctness contract is token-for-tree parity on everything it
// accepts.
func walkCursor(t *testing.T, doc string) []string {
	t.Helper()
	c := AcquireCursor([]byte(doc))
	defer c.Release()
	var trace []string
	for {
		tok, err := c.Next()
		if err != nil {
			t.Fatalf("Next: %v (trace so far %v)", err, trace)
		}
		switch tok {
		case TokStart:
			trace = append(trace, "<"+c.Space()+"|"+c.Name())
		case TokEnd:
			trace = append(trace, ">")
		case TokText:
			s, err := c.Text()
			if err != nil {
				t.Fatalf("Text: %v", err)
			}
			trace = append(trace, "t:"+s)
		case TokEOF:
			return trace
		}
	}
}

func TestCursorTokenWalk(t *testing.T) {
	doc := `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<a:root xmlns:a="urn:a"><a:kid attr="v">text &amp; more</a:kid><plain/></a:root>`
	got := strings.Join(walkCursor(t, doc), " ")
	// The newline after the XML declaration surfaces as a text token;
	// stream consumers discard character data outside the root.
	want := "t:\n <urn:a|root <urn:a|kid t:text & more > <|plain > >"
	if got != want {
		t.Errorf("trace = %q, want %q", got, want)
	}
}

// TestCursorTreeParity re-parses documents with the tree parser and checks
// the cursor reports the same element names, namespaces, attribute values,
// and leaf text.
func TestCursorTreeParity(t *testing.T) {
	docs := []string{
		`<r><v t="xsd:string">hi</v><v t="xsd:string">hi</v></r>`, // memo reuse across identical tags
		`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>` +
			`<m:op xmlns:m="urn:svc"><p x:type="xsd:int" xmlns:x="urn:x">41</p></m:op></e:Body></e:Envelope>`,
		`<r a="1" b="two &quot;quoted&quot;" c="">mixed <i>in</i> tail</r>`,
		`<r xmlns="urn:default"><child attr="&#65;BC"/></r>`,
	}
	for _, doc := range docs {
		root, err := ParseString(doc)
		if err != nil {
			t.Fatalf("tree parse %q: %v", doc, err)
		}
		c := AcquireCursor([]byte(doc))
		var check func(el *Element)
		check = func(el *Element) {
			for {
				tok, err := c.Next()
				if err != nil {
					t.Fatalf("cursor error inside %q: %v", doc, err)
				}
				if tok == TokText {
					continue // trimming rules for mixed content live in the tree parser
				}
				if tok != TokStart {
					t.Fatalf("expected start of <%s> in %q, got token %d", el.Name, doc, tok)
				}
				break
			}
			if c.Space() != el.Space || c.Name() != el.Name {
				t.Errorf("%q: cursor at %s|%s, tree at %s|%s", doc, c.Space(), c.Name(), el.Space, el.Name)
			}
			for _, a := range el.Attrs {
				got, ok := c.Attr(a.Name)
				if !ok || got != a.Value {
					t.Errorf("%q: attr %s = %q/%v, tree has %q", doc, a.Name, got, ok, a.Value)
				}
			}
			for _, kid := range el.Children {
				check(kid)
			}
			for {
				tok, err := c.Next()
				if err != nil {
					t.Fatalf("cursor error closing %s in %q: %v", el.Name, doc, err)
				}
				if tok == TokText {
					continue
				}
				if tok != TokEnd {
					t.Fatalf("expected end of %s in %q, got token %d", el.Name, doc, tok)
				}
				break
			}
		}
		check(root)
		c.Release()
	}
}

func TestCursorRejectsMalformed(t *testing.T) {
	bad := []string{
		`<a>`,
		`<a></b>`,
		`<a attr=oops></a>`,
		`<a>]]></a>`,
		`<a>&bogus;</a>`, // entity validation is deferred to Text()
		`<a><b></a></b>`,
		"<a>\x01</a>",
	}
	for _, doc := range bad {
		c := AcquireCursor([]byte(doc))
		ok := true
		for ok {
			tok, err := c.Next()
			if err != nil {
				ok = false
			}
			if err == nil && tok == TokText {
				if _, terr := c.Text(); terr != nil {
					ok = false
				}
			}
			if ok && tok == TokEOF {
				t.Errorf("cursor accepted malformed %q", doc)
				break
			}
		}
		c.Release()
	}
}

// TestCursorUnsupportedConstructs pins the one construct outside the
// parsers' subset: DTDs and other directives fail with the tree parser's
// error, while comments and CDATA sections read as the parser reads them.
func TestCursorUnsupportedConstructs(t *testing.T) {
	for _, doc := range []string{`<!DOCTYPE a><a/>`, `<a><!ENTITY x "y"></a>`} {
		_, treeErr := ParseString(doc)
		if err := cursorWalkError([]byte(doc)); err == nil || treeErr == nil || err.Error() != treeErr.Error() {
			t.Errorf("%q: cursor error %v, tree parser %v", doc, err, treeErr)
		}
	}
	got := strings.Join(walkCursor(t, `<a>x<!-- c -->y<![CDATA[<&>]]><?pi?></a>`), " ")
	if want := "<|a t:x t:y t:<&> >"; got != want {
		t.Errorf("trace = %q, want %q", got, want)
	}
}

// TestCursorCarve streams into an element, carves it once a child shows
// up, and checks the tree against the parser's and the cursor's position
// after it: the next token is whatever follows the carved element.
func TestCursorCarve(t *testing.T) {
	doc := `<r xmlns:p="urn:p"><v p:t="x">lead<p:kid a="1"><!-- c -->in</p:kid>tail<e/></v><after/></r>`
	tree, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := tree.Children[0]
	arena := AcquireArena()
	defer arena.Release()
	c := AcquireCursor([]byte(doc))
	defer c.Release()
	var m Mark
	for {
		tok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok == TokStart && c.Name() == "v" {
			m = c.Mark()
		}
		if tok == TokStart && c.Name() == "kid" {
			break
		}
	}
	got, err := c.Carve(m, arena)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() || got.Text != want.Text {
		t.Errorf("carved %s (text %q), tree %s (text %q)", got.Render(), got.Text, want.Render(), want.Text)
	}
	if tok, err := c.Next(); err != nil || tok != TokStart || c.Name() != "after" {
		t.Fatalf("after carve: tok=%d err=%v name=%s", tok, err, c.Name())
	}
	// A truncated element fails the carve with the parser's error.
	bad := `<r><v>x<k>`
	_, treeErr := ParseString(bad)
	c2 := AcquireCursor([]byte(bad))
	defer c2.Release()
	c2.Next()
	c2.Next()
	m = c2.Mark()
	if _, err := c2.Carve(m, arena); err == nil || treeErr == nil || err.Error() != treeErr.Error() {
		t.Errorf("truncated carve: %v, tree parser %v", err, treeErr)
	}
}

// TestSkipPrologue pins the memcmp fast path: a seed-matching document
// resumes mid-stream with bindings and open elements installed, and a
// non-matching one is untouched for the general scan.
func TestSkipPrologue(t *testing.T) {
	seed := PrologueSeed{
		Text:     []byte(`<a:r xmlns:a="urn:a"><a:b>`),
		Prefixes: [][]byte{[]byte("a")},
		URIs:     []string{"urn:a"},
		Open:     [][]byte{[]byte("a:r"), []byte("a:b")},
	}
	c := AcquireCursor([]byte(`<a:r xmlns:a="urn:a"><a:b><a:leaf>x</a:leaf></a:b></a:r>`))
	if !c.SkipPrologue(&seed) {
		t.Fatal("SkipPrologue did not match its own prologue")
	}
	if c.Depth() != 2 {
		t.Fatalf("depth after skip = %d, want 2", c.Depth())
	}
	tok, err := c.Next()
	if err != nil || tok != TokStart || c.Space() != "urn:a" || c.Name() != "leaf" {
		t.Fatalf("after skip: tok=%d err=%v %s|%s", tok, err, c.Space(), c.Name())
	}
	// The installed bindings must satisfy end-tag matching all the way out.
	for {
		tok, err = c.Next()
		if err != nil {
			t.Fatalf("walking remainder: %v", err)
		}
		if tok == TokEOF {
			break
		}
	}
	c.Release()

	c = AcquireCursor([]byte(`<other/>`))
	if c.SkipPrologue(&seed) {
		t.Fatal("SkipPrologue matched a foreign document")
	}
	if tok, err := c.Next(); err != nil || tok != TokStart || c.Name() != "other" {
		t.Fatalf("general scan after failed skip: tok=%d err=%v name=%s", tok, err, c.Name())
	}
	c.Release()
}

// attrValueMemoDocs drive the raw-span attribute fast path, which skips
// the scan of a value the memo already holds. The same value repeated
// across elements must come back correct; an entity-escaped value must
// never be confused with a clean memo entry that shares its unescaped
// form; an invalid byte after a memoised twin must still be rejected; and
// a CDATA section, whose literal '&' and '<' make it no valid attribute
// value, must not vouch for an attribute with the same bytes. want lists
// the t attributes of the p elements; nil wants a parse error.
var attrValueMemoDocs = []struct {
	doc  string
	want []string
}{
	{`<r><p t="urn:long-enough-to-memo">1</p><p t="urn:long-enough-to-memo">2</p>` +
		`<p t="urn:long-enough-to&#45;memo">3</p></r>`,
		[]string{"urn:long-enough-to-memo", "urn:long-enough-to-memo", "urn:long-enough-to-memo"}},
	{"<r><p t=\"urn:long-enough-to-memo\"/><p t=\"urn:long-enough-to-memo\x01\"/></r>", nil},
	{"<r><p t=\"urn:long-enough-to-memo\"/><p t=\"urn:long-enough-to-memo\xff\"/></r>", nil},
	{`<r><c><![CDATA[&amp;]]></c><p t="&amp;"/></r>`, []string{"&"}},
	{`<r><c><![CDATA[<x]]></c><p t="<x"/></r>`, nil},
}

// TestCursorAttrValueMemo runs attrValueMemoDocs through the cursor,
// reading every text token so CDATA sections reach the memo, and through
// ParseBytes, whose parser takes the same fast path.
func TestCursorAttrValueMemo(t *testing.T) {
	for _, tc := range attrValueMemoDocs {
		var got []string
		c := AcquireCursor([]byte(tc.doc))
		var err error
		for {
			var tok Tok
			if tok, err = c.Next(); err != nil || tok == TokEOF {
				break
			}
			if tok == TokText {
				if _, err = c.Text(); err != nil {
					break
				}
			}
			if tok == TokStart && c.Name() == "p" {
				v, _ := c.Attr("t")
				got = append(got, v)
			}
		}
		c.Release()
		checkAttrValueMemo(t, "cursor", tc.doc, got, err, tc.want)

		got = nil
		root, err := ParseBytes([]byte(tc.doc))
		if err == nil {
			root.Walk(func(e *Element) bool {
				if e.Name == "p" {
					v, _ := e.Attr("t")
					got = append(got, v)
				}
				return true
			})
		}
		checkAttrValueMemo(t, "ParseBytes", tc.doc, got, err, tc.want)
	}
}

func checkAttrValueMemo(t *testing.T, who, doc string, got []string, err error, want []string) {
	t.Helper()
	switch {
	case want == nil && err == nil:
		t.Errorf("%s accepts %q, want a parse error", who, doc)
	case want != nil && err != nil:
		t.Errorf("%s rejects %q: %v", who, doc, err)
	case want != nil && !slices.Equal(got, want):
		t.Errorf("%s on %q: t attributes %q, want %q", who, doc, got, want)
	}
}

// TestCursorPoolReuse exercises acquire/release cycles: state from one
// document must never bleed into the next, including the memo staying
// value-correct (it may hit, but hits are full-compare guarded).
func TestCursorPoolReuse(t *testing.T) {
	for i := 0; i < 8; i++ {
		doc := `<r a="v"><kid>text</kid></r>`
		if i%2 == 1 {
			doc = `<other b="w"/>`
		}
		c := AcquireCursor([]byte(doc))
		for {
			tok, err := c.Next()
			if err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
			if tok == TokStart && c.Name() == "r" {
				if v, ok := c.Attr("a"); !ok || v != "v" {
					t.Fatalf("cycle %d: attr a = %q/%v", i, v, ok)
				}
			}
			if tok == TokEOF {
				break
			}
		}
		c.Release()
	}
}

// cursorWalkError walks doc to its end with a cursor that never reads a
// text token, returning the first error.
func cursorWalkError(doc []byte) error {
	c := AcquireCursor(doc)
	defer c.Release()
	for {
		tok, err := c.Next()
		if err != nil || tok == TokEOF {
			return err
		}
	}
}

// FuzzCursorVsTree checks the cursor against the tree parser on whole
// documents. Whatever the cursor walks to TokEOF, reading every text
// token, the tree parser accepts, with the same elements in the same
// order: space, name, attributes as Attr sees them, and text by the tree
// parser's rules (runs and CDATA sections joined; trimmed where the
// element has children). Whatever the parser rejects, the cursor rejects
// with the same error text. A walk that skips the text tokens accepts
// nothing more.
func FuzzCursorVsTree(f *testing.F) {
	// Character data inside one element: text scanning and unescaping.
	for _, s := range []string{
		"", "plain", "a &amp; b", "&lt;&gt;&amp;&quot;&apos;", "&#65;&#x42;&#x10FFFF;",
		"x\r\ny\rz\r", "\r&#10;", "]]>", "]]", "a]b", "a\xffb", "&bogus;", "&#0;", "&#xD800;",
		"&#x110000;", "&", "&amp", "\x01", "\t\n", "\xe6\x97\xa5\xe6\x9c\xac", "\xef\xbf\xbe",
		strings.Repeat("&lt;x&amp;", 40),
	} {
		f.Add([]byte("<a>" + s + "</a>"))
	}
	// TestCursorTreeParity's documents.
	for _, doc := range []string{
		`<r><v t="xsd:string">hi</v><v t="xsd:string">hi</v></r>`,
		`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>` +
			`<m:op xmlns:m="urn:svc"><p x:type="xsd:int" xmlns:x="urn:x">41</p></m:op></e:Body></e:Envelope>`,
		`<r a="1" b="two &quot;quoted&quot;" c="">mixed <i>in</i> tail</r>`,
		`<r xmlns="urn:default"><child attr="&#65;BC"/></r>`,
	} {
		f.Add([]byte(doc))
	}
	// An attribute whose prefix is bound to no namespace counts as
	// unqualified for Attr; character data must be checked even when
	// nobody reads it; a second root and an empty document are errors.
	for _, doc := range []string{
		`<a xmlns:p="" p:b="2" b="1"/>`, "x&bogus;<a/>", "<a>&bogus;<b/></a>", "<a/><b/>", "<?pi?> ",
	} {
		f.Add([]byte(doc))
	}
	// Comments and CDATA sections, inside leaves, between children and
	// outside the root, and a DOCTYPE, which both reject.
	for _, doc := range []string{
		`<a>x<!-- c -->y</a>`, `<!-- lead --><a><b/><!-- mid --> <c/></a><!-- tail -->`,
		`<a><![CDATA[<b>&amp;</b>]]></a>`, "<a>x<![CDATA[ y\r\n]]>z &amp; <![CDATA[]]></a>",
		`<a> <![CDATA[ pad ]]> <b/></a>`, `<a><!-- a -- b --></a>`, `<a><![CDATA[x]]</a>`,
		`<!DOCTYPE a><a/>`, `<a><!ELEMENT a ANY></a>`, "<a><!--\x01--></a>",
	} {
		f.Add([]byte(doc))
	}
	for _, tc := range attrValueMemoDocs {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		tree, treeErr := ParseBytes(doc)
		var order []*Element
		if treeErr == nil {
			tree.Walk(func(e *Element) bool { order = append(order, e); return true })
		}
		if err := cursorWalkError(doc); err == nil && treeErr != nil {
			t.Fatalf("a cursor skipping text accepts %q; the tree parser says %v", doc, treeErr)
		}

		type open struct {
			el   *Element
			text string
			kids bool
		}
		var stack []open
		c := AcquireCursor(doc)
		defer c.Release()
		for n := 0; ; {
			tok, err := c.Next()
			var text string
			if err == nil && tok == TokText {
				text, err = c.Text()
			}
			if err != nil {
				switch {
				case treeErr == nil:
					t.Fatalf("the cursor rejects %q (%v); the tree parser accepts it", doc, err)
				case err.Error() != treeErr.Error():
					t.Fatalf("on %q the cursor says %q, the tree parser %q", doc, err, treeErr)
				}
				return
			}
			if treeErr != nil {
				if tok == TokEOF {
					t.Fatalf("the cursor accepts %q; the tree parser says %v", doc, treeErr)
				}
				continue
			}
			switch tok {
			case TokStart:
				if n == len(order) {
					t.Fatalf("on %q the cursor starts <%s|%s> after the tree's last element", doc, c.Space(), c.Name())
				}
				el := order[n]
				n++
				if c.Space() != el.Space || c.Name() != el.Name {
					t.Fatalf("on %q element %d: cursor <%s|%s>, tree <%s|%s>", doc, n, c.Space(), c.Name(), el.Space, el.Name)
				}
				if len(c.pend) != len(el.Attrs) {
					t.Fatalf("on %q element %d: cursor has %d attributes, tree %d", doc, n, len(c.pend), len(el.Attrs))
				}
				for _, a := range append(el.Attrs, Attr{Name: "absent-name"}) {
					got, gotOK := c.Attr(a.Name)
					want, wantOK := el.Attr(a.Name)
					if got != want || gotOK != wantOK {
						t.Fatalf("on %q element %d: Attr(%q) = %q/%v, tree %q/%v", doc, n, a.Name, got, gotOK, want, wantOK)
					}
				}
				if len(stack) > 0 {
					stack[len(stack)-1].kids = true
				}
				stack = append(stack, open{el: el})
			case TokText:
				if len(stack) > 0 {
					stack[len(stack)-1].text += text
				}
			case TokEnd:
				o := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if o.kids {
					o.text = strings.TrimSpace(o.text)
				}
				if o.text != o.el.Text {
					t.Fatalf("on %q <%s>: cursor text %q, tree %q", doc, o.el.Name, o.text, o.el.Text)
				}
			case TokEOF:
				if n != len(order) {
					t.Fatalf("on %q the cursor saw %d elements, the tree %d", doc, n, len(order))
				}
				return
			}
		}
	})
}

// TestCursorErrorTexts walks every document of the parser's error-text
// table, reading its text tokens or not: the cursor fails with the
// parser's exact error text.
func TestCursorErrorTexts(t *testing.T) {
	for _, c := range parseErrorTexts {
		if err := cursorWalkError([]byte(c.doc)); err == nil || err.Error() != c.want {
			t.Errorf("cursor skipping text on %.40q: error = %v, want %q", c.doc, err, c.want)
		}
		cur := AcquireCursor([]byte(c.doc))
		var err error
		for err == nil {
			var tok Tok
			if tok, err = cur.Next(); err == nil && tok == TokText {
				_, err = cur.Text()
			}
			if err == nil && tok == TokEOF {
				break
			}
		}
		cur.Release()
		if err == nil || err.Error() != c.want {
			t.Errorf("cursor reading text on %.40q: error = %v, want %q", c.doc, err, c.want)
		}
	}
}
