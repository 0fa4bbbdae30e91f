package xmlutil

// A streaming direct-to-buffer XML encoder, and the package's only one.
// Callers emit Start/Attr/Text/End events and the serialised form lands in
// the buffer immediately. An element tree is written the same way, by
// Writer.Element, which Element.Render, RenderTo and Canonical call;
// RenderIndent writes through a Writer too. Namespace prefixes are
// assigned in first-use order (ns0, ns1, ...), every declaration is
// emitted on the element where the namespace first appears and forgotten
// when that element closes, and attribute order is preserved.
// FuzzWriterVsRender reads the output back with encoding/xml and requires
// the tree it was written from; the golden conformance suite in
// internal/rpc and the WSDL and WSIL goldens pin the bytes; FuzzEscape
// checks the escape kernel against an independent reference.
//
// Event discipline (mirroring the tree shape): attributes must be written
// before any content of their element, and text before child elements.
// Violations are programming errors and panic.

import (
	"bytes"
	"strconv"
	"sync"
)

// Writer streams XML into a bytes.Buffer without building an element tree.
// Acquire one with NewWriter (caller-owned) or AcquireWriter (pooled; must
// be Released). A Writer must not be used concurrently.
type Writer struct {
	buf *bytes.Buffer

	// scope is the stack of in-scope namespace bindings in declaration
	// order. Documents on these wire dialects carry a handful of
	// namespaces, so a linear scan beats a map on the hot path; frames
	// record marks into the stack and End truncates to them, which is
	// exactly XML's lexical scoping.
	scope []writerBinding
	// pendingMark delimits the bindings declared on the currently open
	// start tag (scope[pendingMark:]); they are flushed as xmlns
	// attributes when the tag closes.
	pendingMark int
	// next numbers prefix assignment; monotone until the next Reset, so a
	// namespace declared again after going out of scope gets a new prefix.
	next   int
	frames []writerFrame
}

// writerBinding is one in-scope namespace declaration.
type writerBinding struct {
	space  string
	prefix string
}

// writerFrame is one open element.
type writerFrame struct {
	name string
	// suffix is the second half of a two-part local name (StartSuffix);
	// empty for ordinary elements.
	suffix    string
	prefix    string
	scopeMark int
	// open is true while the start tag has not been closed with '>'.
	open bool
}

// prefixNames caches the first prefix names so hot-path encodes never
// build them; later ones are "ns" + strconv.Itoa(n).
var prefixNames = [...]string{
	"ns0", "ns1", "ns2", "ns3", "ns4", "ns5", "ns6", "ns7",
	"ns8", "ns9", "ns10", "ns11", "ns12", "ns13", "ns14", "ns15",
}

func prefixName(n int) string {
	if n < len(prefixNames) {
		return prefixNames[n]
	}
	return "ns" + strconv.Itoa(n)
}

// NewWriter returns a Writer emitting into b.
func NewWriter(b *bytes.Buffer) *Writer {
	return &Writer{buf: b}
}

// writerPool recycles Writers (and their scope/frame stacks) across
// hot-path encodes.
var writerPool = sync.Pool{New: func() interface{} {
	return NewWriter(nil)
}}

// AcquireWriter returns a pooled Writer emitting into b. The caller must
// Release it (after which neither the Writer nor anything derived from it
// may be touched); the buffer itself stays with the caller.
func AcquireWriter(b *bytes.Buffer) *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset(b)
	return w
}

// Release returns a pooled Writer to the pool.
func (w *Writer) Release() {
	w.Reset(nil)
	writerPool.Put(w)
}

// Reset rebinds the Writer to a new buffer and clears all namespace and
// element state.
func (w *Writer) Reset(b *bytes.Buffer) {
	w.buf = b
	w.next = 0
	w.scope = w.scope[:0]
	w.pendingMark = 0
	w.frames = w.frames[:0]
}

// Raw writes s verbatim (XML declarations, pre-rendered fragments, the
// whitespace of RenderIndent). An open start tag is closed first.
func (w *Writer) Raw(s string) {
	w.closeOpenTag()
	w.buf.WriteString(s)
}

// need returns the prefix for a namespace URI, assigning and scheduling a
// declaration when the URI is not in scope. The empty URI has no prefix.
func (w *Writer) need(space string) string {
	if space == "" {
		return ""
	}
	for i := range w.scope {
		if w.scope[i].space == space {
			return w.scope[i].prefix
		}
	}
	p := prefixName(w.next)
	w.next++
	w.scope = append(w.scope, writerBinding{space: space, prefix: p})
	return p
}

// closeOpenTag finishes the currently open start tag, emitting any pending
// namespace declarations after the attributes.
func (w *Writer) closeOpenTag() {
	n := len(w.frames)
	if n == 0 || !w.frames[n-1].open {
		return
	}
	w.flushPending()
	w.buf.WriteByte('>')
	w.frames[n-1].open = false
}

func (w *Writer) flushPending() {
	for _, b := range w.scope[w.pendingMark:] {
		w.buf.WriteString(` xmlns:`)
		w.buf.WriteString(b.prefix)
		w.buf.WriteString(`="`)
		escapeTo(w.buf, b.space, &escAttr)
		w.buf.WriteByte('"')
	}
	w.pendingMark = len(w.scope)
}

// Start opens an element with the given namespace URI and local name.
func (w *Writer) Start(space, name string) {
	w.StartSuffix(space, name, "")
}

// StartSuffix opens an element whose local name is the concatenation
// name+suffix, without materialising the joined string — the hot-path
// form for derived wire names like <method>Response.
func (w *Writer) StartSuffix(space, name, suffix string) {
	w.closeOpenTag()
	w.pendingMark = len(w.scope)
	f := writerFrame{name: name, suffix: suffix, scopeMark: len(w.scope), open: true}
	f.prefix = w.need(space)
	w.buf.WriteByte('<')
	if f.prefix != "" {
		w.buf.WriteString(f.prefix)
		w.buf.WriteByte(':')
	}
	w.buf.WriteString(name)
	w.buf.WriteString(suffix)
	w.frames = append(w.frames, f)
}

// Attr writes one attribute on the currently open start tag. It panics if
// no start tag is open (attributes after content would be malformed XML).
func (w *Writer) Attr(space, name, value string) {
	n := len(w.frames)
	if n == 0 || !w.frames[n-1].open {
		panic("xmlutil: Writer.Attr outside an open start tag")
	}
	p := w.need(space)
	w.buf.WriteByte(' ')
	if p != "" {
		w.buf.WriteString(p)
		w.buf.WriteByte(':')
	}
	w.buf.WriteString(name)
	w.buf.WriteString(`="`)
	escapeTo(w.buf, value, &escAttr)
	w.buf.WriteByte('"')
}

// Text writes escaped character data inside the current element. Writing
// the empty string is a no-op, so an element with neither text nor
// children self-closes.
func (w *Writer) Text(s string) {
	if s == "" {
		return
	}
	if len(w.frames) == 0 {
		panic("xmlutil: Writer.Text outside an element")
	}
	w.closeOpenTag()
	escapeTo(w.buf, s, &escText)
}

// End closes the current element: "/>" when it had no content, a full end
// tag otherwise. Namespaces declared on the element go out of scope.
func (w *Writer) End() {
	n := len(w.frames)
	if n == 0 {
		panic("xmlutil: Writer.End without Start")
	}
	f := &w.frames[n-1]
	if f.open {
		w.flushPending()
		w.buf.WriteString("/>")
	} else {
		w.buf.WriteString("</")
		if f.prefix != "" {
			w.buf.WriteString(f.prefix)
			w.buf.WriteByte(':')
		}
		w.buf.WriteString(f.name)
		w.buf.WriteString(f.suffix)
		w.buf.WriteByte('>')
	}
	w.scope = w.scope[:f.scopeMark]
	w.pendingMark = len(w.scope)
	w.frames = w.frames[:n-1]
}

// Element writes a tree through the Writer: its start tag and
// attributes, its text, its children, its end tag. It is how every tree is
// serialised — Element.Render and RenderTo call it on a pooled Writer, and
// the wire paths use it for payloads still built as trees (literal XML
// parameters, SOAP header entries), in the namespace scope open around
// them.
func (w *Writer) Element(el *Element) {
	w.Start(el.Space, el.Name)
	for _, a := range el.Attrs {
		w.Attr(a.Space, a.Name, a.Value)
	}
	if el.Text != "" {
		w.Text(el.Text)
	}
	for _, c := range el.Children {
		w.Element(c)
	}
	w.End()
}

// Depth returns the number of currently open elements.
func (w *Writer) Depth() int { return len(w.frames) }

// escEntities are the replacements the escape kernel writes. escText and
// escAttr map each byte, for element content and for double-quoted
// attribute values, to the index in escEntities of its replacement, or to
// 0 for a byte copied verbatim. Every replaced byte is ASCII, so escaping
// never decodes a rune. A carriage return is escaped in both contexts: a
// raw one would reach the receiver's parser, which normalises line ends
// to a newline.
var escEntities = [...]string{"", "&amp;", "&lt;", "&gt;", "&quot;", "&#10;", "&#9;", "&#13;"}

// escGrowth is how many bytes each entity adds over the byte it replaces,
// so the kernel can size its output without a branch per byte.
var escGrowth = func() (g [len(escEntities)]int) {
	for i := 1; i < len(g); i++ {
		g[i] = len(escEntities[i]) - 1
	}
	return
}()

var escText, escAttr = func() (text, attr [256]uint8) {
	text['&'], text['<'], text['>'], text['\r'] = 1, 2, 3, 7
	attr['&'], attr['<'], attr['"'] = 1, 2, 4
	attr['\n'], attr['\t'], attr['\r'] = 5, 6, 7
	return
}()

// escapeTo is the escape kernel for both contexts (tab is escText or
// escAttr). A first pass sums the length the entities add, from
// escGrowth; a clean string is then written with one copy. Otherwise b
// grows once to the exact escaped length and a second pass copies the
// runs between replaced bytes in bulk, with their entities, straight into
// b's free space. Bytes the
// table does not replace — non-ASCII and invalid UTF-8 included — are
// copied verbatim, so a malformed string reaches the receiver's validator
// instead of being silently rewritten.
func escapeTo(b *bytes.Buffer, s string, tab *[256]uint8) {
	extra := 0
	for i := 0; i < len(s); i++ {
		extra += escGrowth[tab[s[i]]]
	}
	if extra == 0 {
		b.WriteString(s)
		return
	}
	b.Grow(len(s) + extra)
	dst := b.AvailableBuffer()
	last := 0
	for i := 0; i < len(s); i++ {
		if t := tab[s[i]]; t != 0 {
			dst = append(dst, s[last:i]...)
			dst = append(dst, escEntities[t]...)
			last = i + 1
		}
	}
	b.Write(append(dst, s[last:]...))
}
