// Package xmlutil provides a lightweight, order-preserving XML element tree
// used as the foundation for every hand-rolled XML dialect in this repository
// (SOAP envelopes, WSDL documents, UDDI structures, SAML assertions,
// application descriptors, and the container-hierarchy registry).
//
// The Go standard library's encoding/xml maps XML onto static structs, which
// is a poor fit for the open, recursive document shapes computational-portal
// services exchange. Element is a dynamic tree: every node carries a name,
// optional namespace, attributes, character data, and ordered children. The
// package supplies parsing (a hand-rolled pooled byte scanner — see
// scanner.go), deterministic canonical rendering (needed for signature
// computation in the SAML layer), and path-based navigation helpers.
package xmlutil

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// MessageLimit is the largest SOAP message, in bytes, any transport reads
// or any pooled buffer needs to hold. soap enforces it on every message
// read; it lives here, below soap, so the buffer pool derives its cap from
// the same figure.
const MessageLimit = 64 << 20

// bufPool recycles message, render and decode buffers across the XML-heavy
// hot paths (SOAP envelopes read and written, WSDL documents, unescaping).
// It keeps every buffer a message within MessageLimit can need, so bulk
// transfers reuse their buffers instead of regrowing them per message; a
// sync.Pool drops whatever sits idle across two garbage collections, so a
// burst of large transfers does not pin memory once it is over.
var bufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// maxPooledBuffer is twice MessageLimit: a bytes.Buffer about doubles when
// it grows, so a buffer that has held any message the limit admits stays
// under it. Larger buffers held something no transport accepts and are
// dropped.
const maxPooledBuffer = 2 * MessageLimit

// GetBuffer returns an empty buffer from the shared render pool.
func GetBuffer() *bytes.Buffer {
	return bufPool.Get().(*bytes.Buffer)
}

// PutBuffer returns a buffer to the shared render pool. The caller must
// not touch the buffer (or any byte slice derived from it) afterwards.
func PutBuffer(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuffer {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// Attr is a single XML attribute. Space is the namespace URI (not the
// prefix); Name is the local name.
type Attr struct {
	Space string
	Name  string
	Value string
}

// Element is one node of the XML tree. Text holds the concatenated character
// data that appears directly inside the element (children and text are not
// interleaved; portal dialects never rely on mixed content). Children are
// kept in document order.
type Element struct {
	// Space is the namespace URI of the element, empty for unqualified names.
	Space string
	// Name is the local element name.
	Name string
	// Attrs lists the attributes in document order.
	Attrs []Attr
	// Text is the character data directly contained in the element.
	Text string
	// Children are the child elements in document order.
	Children []*Element
}

// New returns a new element with the given local name.
func New(name string) *Element {
	return &Element{Name: name}
}

// NewNS returns a new element with the given namespace URI and local name.
func NewNS(space, name string) *Element {
	return &Element{Space: space, Name: name}
}

// NewText returns a new element with the given local name and text content.
func NewText(name, text string) *Element {
	return &Element{Name: name, Text: text}
}

// SetAttr sets (or replaces) an unqualified attribute and returns the
// element for chaining.
func (e *Element) SetAttr(name, value string) *Element {
	return e.SetAttrNS("", name, value)
}

// SetAttrNS sets (or replaces) a namespaced attribute and returns the
// element for chaining.
func (e *Element) SetAttrNS(space, name, value string) *Element {
	for i := range e.Attrs {
		if e.Attrs[i].Name == name && e.Attrs[i].Space == space {
			e.Attrs[i].Value = value
			return e
		}
	}
	e.Attrs = append(e.Attrs, Attr{Space: space, Name: name, Value: value})
	return e
}

// Attr returns the value of the named unqualified attribute and whether it
// was present.
func (e *Element) Attr(name string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name == name && a.Space == "" {
			return a.Value, true
		}
	}
	// Fall back to a namespaced attribute with the same local name: portal
	// dialects frequently move attributes in and out of the default
	// namespace, and lookups by local name are what the callers mean.
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrDefault returns the value of the named attribute or def when absent.
func (e *Element) AttrDefault(name, def string) string {
	if v, ok := e.Attr(name); ok {
		return v
	}
	return def
}

// Add appends children and returns the element for chaining.
func (e *Element) Add(children ...*Element) *Element {
	e.Children = append(e.Children, children...)
	return e
}

// AddText appends a child with the given name and text and returns the
// parent for chaining.
func (e *Element) AddText(name, text string) *Element {
	return e.Add(NewText(name, text))
}

// AddTextNS appends a namespaced child with text content and returns the
// parent for chaining.
func (e *Element) AddTextNS(space, name, text string) *Element {
	c := NewNS(space, name)
	c.Text = text
	return e.Add(c)
}

// Child returns the first child with the given local name, or nil.
func (e *Element) Child(name string) *Element {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildNS returns the first child with the given namespace URI and local
// name, or nil.
func (e *Element) ChildNS(space, name string) *Element {
	for _, c := range e.Children {
		if c.Name == name && c.Space == space {
			return c
		}
	}
	return nil
}

// ChildText returns the text of the first child with the given local name,
// or the empty string when the child is absent.
func (e *Element) ChildText(name string) string {
	if c := e.Child(name); c != nil {
		return c.Text
	}
	return ""
}

// ChildrenNamed returns all direct children with the given local name.
func (e *Element) ChildrenNamed(name string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Find walks a slash-separated path of local names from the element and
// returns the first match, or nil. An empty path returns the element itself.
// Example: env.Find("Body/submitJob/rsl").
func (e *Element) Find(path string) *Element {
	if path == "" {
		return e
	}
	cur := e
	for _, seg := range strings.Split(path, "/") {
		if cur == nil {
			return nil
		}
		cur = cur.Child(seg)
	}
	return cur
}

// Walk visits the element and every descendant in document order. Returning
// false from fn prunes the subtree below the current node.
func (e *Element) Walk(fn func(*Element) bool) {
	if !fn(e) {
		return
	}
	for _, c := range e.Children {
		c.Walk(fn)
	}
}

// Clone returns a deep copy of the element.
func (e *Element) Clone() *Element {
	cp := &Element{Space: e.Space, Name: e.Name, Text: e.Text}
	cp.Attrs = append([]Attr(nil), e.Attrs...)
	if len(e.Children) > 0 {
		cp.Children = make([]*Element, len(e.Children))
		for i, c := range e.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// Equal reports deep equality of two trees, including attribute order.
func (e *Element) Equal(o *Element) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Space != o.Space || e.Name != o.Name || e.Text != o.Text {
		return false
	}
	if len(e.Attrs) != len(o.Attrs) || len(e.Children) != len(o.Children) {
		return false
	}
	for i := range e.Attrs {
		if e.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	for i := range e.Children {
		if !e.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Int returns the element text parsed as an int.
func (e *Element) Int() (int, error) {
	return strconv.Atoi(strings.TrimSpace(e.Text))
}

// Bool returns the element text parsed as a bool.
func (e *Element) Bool() (bool, error) {
	return strconv.ParseBool(strings.TrimSpace(e.Text))
}

// Parse reads a complete XML document from r and returns the root element.
// Processing instructions, comments, and the XML declaration are skipped;
// a UTF-8 byte-order mark and leading whitespace are tolerated. Parsing is
// done by the pooled byte scanner in scanner.go.
func Parse(r io.Reader) (*Element, error) {
	b := GetBuffer()
	defer PutBuffer(b)
	if _, err := io.Copy(b, r); err != nil {
		return nil, fmt.Errorf("xmlutil: parse: %w", err)
	}
	return ParseBytes(b.Bytes())
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Element, error) {
	return ParseBytes([]byte(s))
}

// ParseBytes parses an XML document held in a byte slice. The returned tree
// does not alias data and is owned by the caller forever. It is the tree
// oracle of the wire decoders: request and response envelopes are read by
// a Cursor, which carves only the subtrees a caller navigates into a
// pooled arena (AcquireArena, Cursor.Carve).
func ParseBytes(data []byte) (*Element, error) {
	return parseRetained(data)
}

// Render serialises the tree to XML through the Writer, the package's one
// encoder. Namespace prefixes are assigned deterministically in first-use
// order (ns0, ns1, ...), and every namespace declaration is emitted on the
// element where the namespace first appears. Attribute order is
// preserved. The output carries no XML declaration.
func (e *Element) Render() string {
	b := GetBuffer()
	e.RenderTo(b)
	s := b.String()
	PutBuffer(b)
	return s
}

// RenderTo serialises the tree into b through a pooled Writer, with no
// allocation of its own, for callers that manage their own (typically
// pooled) buffers.
func (e *Element) RenderTo(b *bytes.Buffer) {
	w := AcquireWriter(b)
	w.Element(e)
	w.Release()
}

// RenderIndent serialises the tree with two-space indentation, for human
// inspection and documentation output. It writes through the same Writer
// as Render and adds the whitespace with Writer.Raw.
func (e *Element) RenderIndent() string {
	var b bytes.Buffer
	w := AcquireWriter(&b)
	e.writeIndent(w, "")
	w.Release()
	return b.String()
}

// writeIndent writes e at the indentation pad: one line for an element
// without children, otherwise its start tag, its text and children one
// level deeper, and its end tag on lines of their own.
func (e *Element) writeIndent(w *Writer, pad string) {
	w.Raw(pad)
	w.Start(e.Space, e.Name)
	for _, a := range e.Attrs {
		w.Attr(a.Space, a.Name, a.Value)
	}
	if len(e.Children) == 0 {
		w.Text(e.Text)
		w.End()
		w.Raw("\n")
		return
	}
	w.Raw("\n")
	if e.Text != "" {
		w.Raw(pad + "  ")
		w.Text(e.Text)
		w.Raw("\n")
	}
	for _, c := range e.Children {
		c.writeIndent(w, pad+"  ")
	}
	w.Raw(pad)
	w.End()
	w.Raw("\n")
}

// Canonical returns a canonical form of the tree suitable as a signature
// input: attributes sorted by (space, name), text whitespace trimmed, and
// namespace prefixes assigned in a pre-order traversal. Two trees that are
// Equal up to attribute order produce identical canonical strings. The
// tree is written straight through a pooled Writer, neither copied nor
// changed, so the returned string is the only allocation.
func (e *Element) Canonical() string {
	b := GetBuffer()
	w := AcquireWriter(b)
	e.writeCanonical(w)
	w.Release()
	s := b.String()
	PutBuffer(b)
	return s
}

// writeCanonical writes e as Writer.Element does, but with its attributes
// in (space, name) order and its text trimmed. The attributes are sorted
// in a copy on the stack, so an element with up to eight of them
// allocates nothing. The sort is stable, so attributes of one (space,
// name) keep their document order, and O(n log n): the tree may be a
// request parameter with any number of attributes.
func (e *Element) writeCanonical(w *Writer) {
	w.Start(e.Space, e.Name)
	var stack [8]Attr
	attrs := append(stack[:0], e.Attrs...)
	slices.SortStableFunc(attrs, compareAttrs)
	for i := range attrs {
		w.Attr(attrs[i].Space, attrs[i].Name, attrs[i].Value)
	}
	w.Text(strings.TrimSpace(e.Text))
	for _, c := range e.Children {
		c.writeCanonical(w)
	}
	w.End()
}

// compareAttrs orders attributes by namespace URI, then local name.
func compareAttrs(a, b Attr) int {
	if c := strings.Compare(a.Space, b.Space); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}
