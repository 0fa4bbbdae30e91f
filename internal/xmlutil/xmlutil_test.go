package xmlutil

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndChaining(t *testing.T) {
	e := New("application").
		SetAttr("name", "gaussian").
		AddText("version", "98").
		Add(NewText("flag", "-direct"))
	if e.Name != "application" {
		t.Fatalf("name = %q", e.Name)
	}
	if got := e.ChildText("version"); got != "98" {
		t.Errorf("version = %q, want 98", got)
	}
	if got := e.AttrDefault("name", ""); got != "gaussian" {
		t.Errorf("attr name = %q", got)
	}
	if got := e.AttrDefault("missing", "dflt"); got != "dflt" {
		t.Errorf("default = %q", got)
	}
}

func TestSetAttrReplaces(t *testing.T) {
	e := New("x").SetAttr("a", "1").SetAttr("a", "2")
	if len(e.Attrs) != 1 {
		t.Fatalf("attrs = %d, want 1", len(e.Attrs))
	}
	if v, _ := e.Attr("a"); v != "2" {
		t.Errorf("a = %q, want 2", v)
	}
}

func TestAttrNamespacedFallback(t *testing.T) {
	e := New("x").SetAttrNS("urn:ns", "type", "demo")
	if v, ok := e.Attr("type"); !ok || v != "demo" {
		t.Errorf("fallback lookup got %q ok=%v", v, ok)
	}
}

func TestParseRoundTrip(t *testing.T) {
	const doc = `<?xml version="1.0"?>
<host name="modi4.ncsa.uiuc.edu">
  <ip>141.142.30.72</ip>
  <queue system="PBS"><maxWallTime>3600</maxWallTime></queue>
  <queue system="GRD"><maxWallTime>7200</maxWallTime></queue>
</host>`
	root, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "host" {
		t.Fatalf("root = %q", root.Name)
	}
	if got := root.ChildText("ip"); got != "141.142.30.72" {
		t.Errorf("ip = %q", got)
	}
	queues := root.ChildrenNamed("queue")
	if len(queues) != 2 {
		t.Fatalf("queues = %d, want 2", len(queues))
	}
	if sys, _ := queues[1].Attr("system"); sys != "GRD" {
		t.Errorf("second queue system = %q", sys)
	}
	// Render and parse again; trees must be equal.
	again, err := ParseString(root.Render())
	if err != nil {
		t.Fatal(err)
	}
	if !root.Equal(again) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", root.RenderIndent(), again.RenderIndent())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"empty", ""},
		{"unterminated", "<a><b></b>"},
		{"garbage", "not xml at all <"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.doc); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.doc)
			}
		})
	}
}

func TestNamespaceRendering(t *testing.T) {
	env := NewNS("http://schemas.xmlsoap.org/soap/envelope/", "Envelope")
	body := NewNS("http://schemas.xmlsoap.org/soap/envelope/", "Body")
	call := NewNS("urn:batchscript", "generateScript")
	call.AddText("scheduler", "PBS")
	env.Add(body.Add(call))
	out := env.Render()
	if !strings.Contains(out, `xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/"`) {
		t.Errorf("missing envelope ns decl: %s", out)
	}
	if !strings.Contains(out, `xmlns:ns1="urn:batchscript"`) {
		t.Errorf("missing service ns decl: %s", out)
	}
	parsed, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	got := parsed.ChildNS("http://schemas.xmlsoap.org/soap/envelope/", "Body")
	if got == nil {
		t.Fatal("Body not found by namespace after round trip")
	}
	if got.Children[0].Space != "urn:batchscript" {
		t.Errorf("call space = %q", got.Children[0].Space)
	}
}

func TestNamespaceScopeReuse(t *testing.T) {
	// Two siblings in the same foreign namespace: after the first sibling
	// closes its declaration goes out of scope, so the second must redeclare.
	root := New("root")
	root.Add(NewNS("urn:a", "x"), NewNS("urn:a", "y"))
	out := root.Render()
	if strings.Count(out, `xmlns:`) != 2 {
		t.Errorf("expected 2 declarations, got: %s", out)
	}
	parsed, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.ChildNS("urn:a", "y") == nil {
		t.Errorf("sibling namespace lost: %s", out)
	}
}

func TestEscaping(t *testing.T) {
	e := NewText("msg", `a<b & "c">d`)
	e.SetAttr("q", `x"y<z&`)
	out := e.Render()
	parsed, err := ParseString(out)
	if err != nil {
		t.Fatalf("parse escaped: %v (%s)", err, out)
	}
	if parsed.Text != `a<b & "c">d` {
		t.Errorf("text = %q", parsed.Text)
	}
	if v, _ := parsed.Attr("q"); v != `x"y<z&` {
		t.Errorf("attr = %q", v)
	}
}

func TestFindAndFindAll(t *testing.T) {
	doc := New("apps")
	for i := 0; i < 3; i++ {
		app := New("application")
		app.AddText("name", "code")
		doc.Add(app)
	}
	if doc.Find("application/name") == nil {
		t.Error("Find returned nil")
	}
	if doc.Find("missing/path") != nil {
		t.Error("Find on absent path returned non-nil")
	}
	if name := doc.Find("application/name"); name == nil || name.Text != "code" {
		t.Error("Find text mismatch")
	}
	if doc.Find("") != doc {
		t.Error("empty path should return receiver")
	}
}

func TestWalkPrune(t *testing.T) {
	root := New("a").Add(New("b").Add(New("c")), New("d"))
	var visited []string
	root.Walk(func(e *Element) bool {
		visited = append(visited, e.Name)
		return e.Name != "b" // prune below b
	})
	want := []string{"a", "b", "d"}
	if !reflect.DeepEqual(visited, want) {
		t.Errorf("visited = %v, want %v", visited, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := New("ctx").SetAttr("user", "marpierce").AddText("problem", "cfd")
	cp := orig.Clone()
	cp.Children[0].Text = "changed"
	cp.SetAttr("user", "other")
	if orig.ChildText("problem") != "cfd" {
		t.Error("clone mutated original child")
	}
	if v, _ := orig.Attr("user"); v != "marpierce" {
		t.Error("clone mutated original attr")
	}
	if !orig.Clone().Equal(orig) {
		t.Error("clone not equal to original")
	}
}

func TestCanonicalSortsAttrs(t *testing.T) {
	a := New("x").SetAttr("b", "2").SetAttr("a", "1")
	b := New("x").SetAttr("a", "1").SetAttr("b", "2")
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical forms differ: %q vs %q", a.Canonical(), b.Canonical())
	}
	if a.Render() == b.Render() {
		t.Log("note: plain render coincidentally equal")
	}
}

// TestCanonicalWideElement: an element with three thousand attributes in
// reverse order, each local name under two namespaces and one of them
// twice, is written in (space, name) order, and the two attributes of one
// (space, name) keep their document order.
func TestCanonicalWideElement(t *testing.T) {
	el := New("wide")
	for _, a := range []Attr{{Space: "urn:b", Value: "b"}, {Space: "urn:a", Value: "1st"}, {Space: "urn:a", Value: "2nd"}} {
		for i := 1000; i > 0; i-- {
			el.Attrs = append(el.Attrs, Attr{Space: a.Space, Name: fmt.Sprintf("a%04d", i), Value: a.Value})
		}
	}
	var want strings.Builder
	want.WriteString("<wide")
	for i := 1; i <= 1000; i++ {
		fmt.Fprintf(&want, ` ns0:a%04d="1st" ns0:a%04d="2nd"`, i, i)
	}
	for i := 1; i <= 1000; i++ {
		fmt.Fprintf(&want, ` ns1:a%04d="b"`, i)
	}
	want.WriteString(` xmlns:ns0="urn:a" xmlns:ns1="urn:b"/>`)
	if got := el.Canonical(); got != want.String() {
		t.Errorf("Canonical of a wide element:\n got %.300s\nwant %.300s", got, want.String())
	}
}

func TestIntBool(t *testing.T) {
	if v, err := NewText("n", " 42 ").Int(); err != nil || v != 42 {
		t.Errorf("Int = %d, %v", v, err)
	}
	if v, err := NewText("b", "true").Bool(); err != nil || !v {
		t.Errorf("Bool = %v, %v", v, err)
	}
	if _, err := NewText("n", "x").Int(); err == nil {
		t.Error("Int on garbage should fail")
	}
}

// randomTree builds a random element tree for property testing.
func randomTree(r *rand.Rand, depth int) *Element {
	names := []string{"application", "host", "queue", "param", "service", "context"}
	e := New(names[r.Intn(len(names))])
	if r.Intn(2) == 0 {
		e.Space = []string{"urn:a", "urn:b", "http://example.org/s"}[r.Intn(3)]
	}
	nattrs := r.Intn(3)
	for i := 0; i < nattrs; i++ {
		e.SetAttr("a"+string(rune('a'+i)), randomText(r))
	}
	if depth > 0 {
		n := r.Intn(3)
		for i := 0; i < n; i++ {
			e.Add(randomTree(r, depth-1))
		}
	}
	if len(e.Children) == 0 {
		e.Text = randomText(r)
	}
	return e
}

func randomText(r *rand.Rand) string {
	chars := []rune(`abc XYZ<>&"0129 -_.`)
	n := r.Intn(12)
	out := make([]rune, n)
	for i := range out {
		out[i] = chars[r.Intn(len(chars))]
	}
	return strings.TrimSpace(string(out))
}

// TestPropertyRoundTrip: for random trees, Render followed by Parse
// reproduces an Equal tree. This is the core invariant every XML dialect in
// the repository relies on.
func TestPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 3)
		parsed, err := ParseString(tree.Render())
		if err != nil {
			t.Logf("seed %d: parse error %v", seed, err)
			return false
		}
		if !tree.Equal(parsed) {
			t.Logf("seed %d mismatch:\n%s\nvs\n%s", seed, tree.RenderIndent(), parsed.RenderIndent())
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyCanonicalStable: canonicalisation is idempotent and invariant
// under attribute permutation.
func TestPropertyCanonicalStable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 3)
		c1 := tree.Canonical()
		shuffled := tree.Clone()
		shuffled.Walk(func(e *Element) bool {
			r.Shuffle(len(e.Attrs), func(i, j int) { e.Attrs[i], e.Attrs[j] = e.Attrs[j], e.Attrs[i] })
			return true
		})
		return c1 == shuffled.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 3)
		return tree.Clone().Equal(tree)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
