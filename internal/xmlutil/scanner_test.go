package xmlutil

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestCDATASection(t *testing.T) {
	root, err := ParseString(`<doc><![CDATA[a < b && c > d <notatag/>]]></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Text; got != "a < b && c > d <notatag/>" {
		t.Errorf("CDATA text = %q", got)
	}
	// CDATA does not expand entities.
	root, err = ParseString(`<doc><![CDATA[&amp;]]></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	if root.Text != "&amp;" {
		t.Errorf("CDATA entity text = %q, want literal &amp;", root.Text)
	}
	// CDATA concatenates with surrounding character data.
	root, err = ParseString(`<doc>pre<![CDATA[mid]]>post</doc>`)
	if err != nil {
		t.Fatal(err)
	}
	if root.Text != "premidpost" {
		t.Errorf("mixed CDATA text = %q", root.Text)
	}
	if _, err := ParseString(`<doc><![CDATA[never closed</doc>`); err == nil {
		t.Error("unterminated CDATA accepted")
	}
}

func TestCommentsInsideElements(t *testing.T) {
	root, err := ParseString(`<doc><!-- a comment --><child><!-- inner -->x</child><!-- t --></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != 1 || root.ChildText("child") != "x" {
		t.Errorf("tree after comments = %s", root.RenderIndent())
	}
	// Comment splitting a text run still concatenates the text.
	root, err = ParseString(`<doc>ab<!--c-->cd</doc>`)
	if err != nil {
		t.Fatal(err)
	}
	if root.Text != "abcd" {
		t.Errorf("text across comment = %q", root.Text)
	}
	if _, err := ParseString(`<doc><!-- a -- b --></doc>`); err == nil {
		t.Error(`"--" inside comment accepted`)
	}
	if _, err := ParseString(`<doc><!-- never closed</doc>`); err == nil {
		t.Error("unterminated comment accepted")
	}
}

func TestNumericCharacterReferences(t *testing.T) {
	root, err := ParseString("<doc a=\"x&#xA;y\">A&#65;&#x42;&#x1F600;&#9;</doc>")
	if err != nil {
		t.Fatal(err)
	}
	if root.Text != "AAB\U0001F600\t" {
		t.Errorf("text = %q", root.Text)
	}
	if v, _ := root.Attr("a"); v != "x\ny" {
		t.Errorf("attr = %q", v)
	}
	for _, bad := range []string{
		"<d>&#0;</d>",       // NUL is not an XML char
		"<d>&#xD800;</d>",   // surrogate
		"<d>&#xFFFF;</d>",   // noncharacter
		"<d>&#x110000;</d>", // above Unicode
		"<d>&#;</d>",        // empty
		"<d>&#x;</d>",       // empty hex
		"<d>&#12a;</d>",     // junk digit
		"<d>&unknown;</d>",  // undefined entity
		"<d>&amp</d>",       // no semicolon
		"<d>a & b</d>",      // bare ampersand
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", bad)
		}
	}
}

func TestAttributeValueEdgeCases(t *testing.T) {
	// Literal '>' inside an attribute value is legal XML.
	root, err := ParseString(`<doc expr="a > b" q='single "quoted"'/>`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := root.Attr("expr"); v != "a > b" {
		t.Errorf("expr = %q", v)
	}
	if v, _ := root.Attr("q"); v != `single "quoted"` {
		t.Errorf("q = %q", v)
	}
	// Entities and line endings normalise inside values.
	root, err = ParseString("<doc a=\"x&quot;y\" b=\"u\r\nv\r w\"/>")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := root.Attr("a"); v != `x"y` {
		t.Errorf("a = %q", v)
	}
	if v, _ := root.Attr("b"); v != "u\nv\n w" {
		t.Errorf("b = %q", v)
	}
	for _, bad := range []string{
		`<d a="<"/>`,   // raw '<' in value
		`<d a=bare/>`,  // unquoted
		`<d a/>`,       // no value
		`<d a="open/>`, // unterminated
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", bad)
		}
	}
}

func TestDeepNestingLimit(t *testing.T) {
	deep := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString("<a>")
		}
		b.WriteString("x")
		for i := 0; i < n; i++ {
			b.WriteString("</a>")
		}
		return b.String()
	}
	root, err := ParseString(deep(maxDepth - 1))
	if err != nil {
		t.Fatalf("depth %d rejected: %v", maxDepth-1, err)
	}
	n := 0
	for el := root; el != nil; el = el.Child("a") {
		n++
	}
	if n != maxDepth-1 {
		t.Errorf("parsed depth = %d", n)
	}
	if _, err := ParseString(deep(maxDepth + 10)); err == nil {
		t.Errorf("depth %d accepted, want depth-limit error", maxDepth+10)
	}
}

func TestUTF8MultibyteContent(t *testing.T) {
	const doc = `<doc väl="ü"><名前>日本語テキスト</名前><emoji>🎉🚀</emoji></doc>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.ChildText("名前"); got != "日本語テキスト" {
		t.Errorf("multibyte text = %q", got)
	}
	if got := root.ChildText("emoji"); got != "🎉🚀" {
		t.Errorf("emoji text = %q", got)
	}
	if v, _ := root.Attr("väl"); v != "ü" {
		t.Errorf("multibyte attr = %q", v)
	}
	// Round trip.
	again, err := ParseString(root.Render())
	if err != nil {
		t.Fatal(err)
	}
	if !root.Equal(again) {
		t.Error("multibyte round trip mismatch")
	}
	// Truncated and overlong sequences are rejected.
	for _, bad := range []string{"<d>\xe6\x97</d>", "<d>\xff</d>", "<d a=\"\xc0\xaf\"/>"} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) succeeded, want invalid-UTF-8 error", bad)
		}
	}
}

func TestBOMAndLeadingWhitespace(t *testing.T) {
	for _, doc := range []string{
		"\xef\xbb\xbf<a>x</a>",
		"\xef\xbb\xbf<?xml version=\"1.0\"?><a>x</a>",
		"  \r\n\t<?xml version=\"1.0\"?>\n<a>x</a>",
		"\xef\xbb\xbf \n<?xml version=\"1.0\" encoding=\"UTF-8\"?><a>x</a>",
	} {
		root, err := ParseString(doc)
		if err != nil {
			t.Errorf("ParseString(%q): %v", doc, err)
			continue
		}
		if root.Name != "a" || root.Text != "x" {
			t.Errorf("ParseString(%q) = %s", doc, root.Render())
		}
	}
	// A BOM inside content is an ordinary character, not a BOM.
	root, err := ParseString("<a>\ufeffx</a>")
	if err != nil {
		t.Fatal(err)
	}
	if root.Text != "\ufeffx" {
		t.Errorf("interior U+FEFF text = %q", root.Text)
	}
}

func TestTagSyntaxErrors(t *testing.T) {
	for _, bad := range []string{
		"<a></b>",                // mismatched end tag
		"<a:b:c xmlns:a=\"u\"/>", // two colons in a name
		"< a/>",                  // space before name
		"<1a/>",                  // digit-leading name
		"<a/ >",                  // junk between / and >
		"<a></a junk>",           // junk in end tag
		"<a>x]]>y</a>",           // CDATA terminator in text
		"<!DOCTYPE a><a/>",       // DTDs are outside the subset
		"<a>\x0b</a>",            // vertical tab is not an XML char
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", bad)
		}
	}
	// Processing instructions are skipped, not errors.
	root, err := ParseString(`<a><?php echo "x"; ?>text</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if root.Text != "text" {
		t.Errorf("text after PI = %q", root.Text)
	}
}

func TestNamespaceResolutionParity(t *testing.T) {
	// Late declaration on the same tag, shadowing, and unbound prefixes
	// behave exactly as encoding/xml resolved them.
	root, err := ParseString(`<p:a xmlns:p="urn:1"><p:b xmlns:p="urn:2"/><p:c/><q:d/><e xml:lang="en"/></p:a>`)
	if err != nil {
		t.Fatal(err)
	}
	if root.Space != "urn:1" {
		t.Errorf("root space = %q", root.Space)
	}
	if got := root.Children[0].Space; got != "urn:2" {
		t.Errorf("shadowed child space = %q", got)
	}
	if got := root.Children[1].Space; got != "urn:1" {
		t.Errorf("unshadowed sibling space = %q", got)
	}
	if got := root.Children[2].Space; got != "q" {
		t.Errorf("unbound prefix space = %q (must fall back to the prefix)", got)
	}
	if a := root.Children[3].Attrs[0]; a.Space != xmlNamespace || a.Name != "lang" {
		t.Errorf("xml:lang attr = %+v", a)
	}
	// An end tag repeats its start tag's prefix, even where another
	// prefix is bound to the same URI.
	if _, err := ParseString(`<p:a xmlns:p="u" xmlns:q="u"></q:a>`); err == nil {
		t.Error("same-URI close under another prefix accepted")
	}
	// Degenerate colon names are whole local names, not namespace splits.
	root, err = ParseString(`<b: :c="v"></b:>`)
	if err != nil {
		t.Fatalf("degenerate colon name rejected: %v", err)
	}
	if root.Name != "b:" || root.Space != "" {
		t.Errorf("degenerate name = %q space %q", root.Name, root.Space)
	}
	if v, _ := root.Attr(":c"); v != "v" {
		t.Errorf("degenerate attr lookup = %q", v)
	}
}

// carveRoot parses data into arena the way the soap reader builds its
// subtrees: a Cursor walks to the root's start tag, Carve re-reads the
// root as a tree, and the cursor checks the rest of the document.
func carveRoot(data []byte, arena *Doc) (*Element, error) {
	c := AcquireCursor(data)
	defer c.Release()
	var root *Element
	for {
		tok, err := c.Next()
		if err != nil {
			return nil, err
		}
		switch tok {
		case TokEOF:
			return root, nil
		case TokStart:
			if root, err = c.Carve(c.Mark(), arena); err != nil {
				return nil, err
			}
		}
	}
}

func TestPooledParseReuse(t *testing.T) {
	// Stress the arena across documents of different shapes and prove no
	// state bleeds between parses.
	docs := []string{
		`<a x="1"><b>one</b><b>two</b></a>`,
		`<root xmlns="urn:d"><only/></root>`,
		`<m><n o="p"/>text<q/></m>`,
	}
	for round := 0; round < 100; round++ {
		src := docs[round%len(docs)]
		want, err := ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		arena := AcquireArena()
		got, err := carveRoot([]byte(src), arena)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("round %d: pooled tree differs:\n%s\nvs\n%s",
				round, got.RenderIndent(), want.RenderIndent())
		}
		arena.Release()
	}
}

func TestPooledParseErrorRecovery(t *testing.T) {
	// A failed pooled parse must recycle cleanly and not poison later ones.
	for i := 0; i < 20; i++ {
		arena := AcquireArena()
		if _, err := carveRoot([]byte("<a><unclosed>"), arena); err == nil {
			t.Fatal("malformed document accepted")
		}
		arena.Release()
		arena = AcquireArena()
		root, err := carveRoot([]byte("<ok>fine</ok>"), arena)
		if err != nil {
			t.Fatal(err)
		}
		if root.Text != "fine" {
			t.Fatalf("text = %q", root.Text)
		}
		arena.Release()
	}
}

func TestMixedTextTrimming(t *testing.T) {
	// Elements with children trim surrounding whitespace; leaves keep it.
	root, err := ParseString("<a>\n  <b>  padded  </b>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if root.Text != "" {
		t.Errorf("parent text = %q, want empty", root.Text)
	}
	if got := root.ChildText("b"); got != "  padded  " {
		t.Errorf("leaf text = %q, want verbatim padding", got)
	}
	root, err = ParseString("<a> x <b/> y </a>")
	if err != nil {
		t.Fatal(err)
	}
	if root.Text != "x  y" {
		t.Errorf("mixed text = %q", root.Text)
	}
}

// TestSplitTextIsLinear pins that an element's text costs linear work in
// its number of runs: runs split by comments or by child elements are
// joined once, not re-concatenated per run, so the bytes allocated per run
// at 16,000 runs stay within twice those at 1,000.
func TestSplitTextIsLinear(t *testing.T) {
	for _, shape := range []struct{ name, run, sep string }{
		{"comment-split", "xxxxxxxx", "<!---->"},
		{"child-split", "x", "<b/>"},
	} {
		t.Run(shape.name, func(t *testing.T) {
			perRun := func(n int) float64 {
				doc := []byte("<a>" + strings.Repeat(shape.run+shape.sep, n) + "</a>")
				best := ^uint64(0)
				for i := 0; i < 3; i++ {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					root, err := ParseBytes(doc)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					if want := strings.Repeat(shape.run, n); root.Text != want {
						t.Fatalf("n=%d: text is %d bytes, want the %d bytes of the runs joined", n, len(root.Text), len(want))
					}
					best = min(best, after.TotalAlloc-before.TotalAlloc)
				}
				return float64(best) / float64(n)
			}
			small, large := perRun(1000), perRun(16000)
			if large > 2*small {
				t.Errorf("%.0f bytes allocated per run at 16,000 runs, %.0f at 1,000: joining is not linear", large, small)
			}
		})
	}
}

// TestFreshVocabularyCostsFlat pins that a parse costs the same whether
// its names and attribute values are new to the parser or not: 20,000
// documents whose element names and attribute values are all fresh, and
// the bytes allocated per document in the first thousand stay within 1.5
// times those in the last thousand. A string table that grows with the
// vocabulary it has seen, with a cost per insert that grows with it, fails
// this.
func TestFreshVocabularyCostsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops parsers at random under -race")
	}
	const docs, window = 20000, 1000
	doc := make([]byte, 0, 128)
	parse := func(i int) {
		n := strconv.AppendInt(nil, int64(i), 10)
		doc = append(doc[:0], "<e"...)
		doc = append(append(doc, n...), ` k="v`...)
		doc = append(append(doc, n...), `"><f`...)
		doc = append(append(doc, n...), ` k="w`...)
		doc = append(append(doc, n...), `">x</f`...)
		doc = append(append(doc, n...), "></e"...)
		doc = append(append(doc, n...), '>')
		if _, err := ParseBytes(doc); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
	}
	allocated := func(from int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := from; i < from+window; i++ {
			parse(i)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := allocated(0)
	for i := window; i < docs-window; i++ {
		parse(i)
	}
	last := allocated(docs - window)
	if float64(first) > 1.5*float64(last) {
		t.Errorf("first %d documents allocated %d B each, last %d %d B each: fresh names cost more than known ones",
			window, first/window, window, last/window)
	}
	t.Logf("first %d documents: %d B each, last %d: %d B each", window, first/window, window, last/window)
}
