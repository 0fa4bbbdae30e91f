// cursor.go implements a pull-token reader over the same XML subset the
// tree parser in scanner.go accepts — minus the constructs the streaming
// consumers deliberately refuse (comments, CDATA sections, DTDs). It is the
// foundation of the treeless decode fast path: the soap package walks
// tokens straight off the wire bytes and hands scalar parameter text to
// per-operation codecs without ever materialising an *Element tree.
//
// Contract with the tree parser: the cursor must never accept input the
// tree parser rejects, and must decode identical strings for everything it
// does accept (names interned through the same table, entity expansion and
// "\r" normalisation identical, character validity identical). It may
// reject MORE than the parser does — any error simply routes the document
// to the tree path, which remains the semantic authority. That one-sided
// guarantee is what lets the fast path fall back on surprise instead of
// replicating every edge case.
package xmlutil

import (
	"bytes"
	"errors"
	"sync"
	"unicode/utf8"
)

// Tok is the kind of token Cursor.Next produced.
type Tok uint8

const (
	// TokStart is an element start tag; Space/Name/Attr describe it. A
	// self-closing tag yields TokStart followed immediately by TokEnd.
	TokStart Tok = iota
	// TokEnd is an element end tag.
	TokEnd
	// TokText is one run of character data; Text/TextIsSpace read it.
	TokText
	// TokEOF is the end of the document with all elements closed.
	TokEOF
)

// ErrCursorUnsupported marks a well-formed-so-far construct outside the
// cursor's streaming subset (comments, CDATA, DTDs). Callers treat it the
// same as a parse error — fall back to the tree parser — but the distinct
// value keeps diagnostics honest: the input was not necessarily malformed.
var ErrCursorUnsupported = errors.New("xmlutil: cursor: construct outside the streaming subset")

var errCursorMalformed = errors.New("xmlutil: cursor: malformed XML")

// openElem is one open element: its resolved identity for end-tag matching
// plus the namespace-stack depth to restore when it closes.
type openElem struct {
	space, name string
	nsMark      int
}

// Cursor is a pooled pull-token reader. Acquire with AcquireCursor, walk
// with Next, and Release when done (whether or not parsing succeeded).
// Strings returned by Name, Space, Attr lookups, and Text never alias the
// input and stay valid after Release.
type Cursor struct {
	data []byte
	pos  int

	ns   []nsBinding
	open []openElem
	// pend holds the current start tag's non-xmlns attributes. Lookups are
	// lazy: Attr resolves against these raw spans on demand, so tags whose
	// attributes nobody reads never pay for name interning or namespace
	// resolution.
	pend []pendingAttr

	// Current TokStart state.
	space, name string
	selfClose   bool

	// Current TokText state: the raw span (aliasing data) and whether it
	// needs unescaping.
	textSpan  []byte
	textClean bool

	// memo is a small direct-mapped cache over recently seen clean byte
	// spans (names, attribute values, short leaf text), surviving pool
	// cycles. RPC traffic re-sends the same vocabulary every request —
	// "xsd:string", the xsi namespace URI, parameter names, scheduler
	// names — and the cache turns those into collision-checked string
	// reuse without touching the locked global intern table.
	memo [32]string
}

// memoSpan returns a string equal to the clean span, reusing a cached
// instance when the same bytes were seen recently. A full comparison
// guards every hit, so collisions only cost the miss path: one string
// allocation and a cache overwrite.
//
// Only bounded vocabulary — element names and namespace prefixes — may
// feed the global intern table through here. High-cardinality spans
// (leaf text and attribute values: registry keys, user data) must go
// through memoLocal instead, or the append-only intern table fills with
// one-shot strings — evicting nothing, wasting the cap, and paying a
// full-table copy per insert until full.
func (c *Cursor) memoSpan(span []byte) string {
	if len(span) == 0 {
		return ""
	}
	if len(span) > maxInternLen {
		return string(span)
	}
	h := (uint(len(span))*131 + uint(span[0])*31 + uint(span[len(span)-1])) % uint(len(c.memo))
	if s := c.memo[h]; s == string(span) { // no alloc: compiler-recognised compare
		return s
	}
	s := intern(span) // shared instance even when slots collide
	c.memo[h] = s
	return s
}

// memoLocal is memoSpan without the global intern table: a miss
// allocates and caches per-cursor only. For spans whose value space is
// unbounded, the recurring ones ("xsd:string", redeclared namespace
// URIs) still turn into reuse via the memo — cursors are pooled, so the
// memo warms once per cursor instance — while unique ones (freshly
// minted uuid keys in publish responses) cost exactly their own
// allocation instead of a global table insert.
func (c *Cursor) memoLocal(span []byte) string {
	if len(span) == 0 {
		return ""
	}
	if len(span) > maxInternLen {
		return string(span)
	}
	h := (uint(len(span))*131 + uint(span[0])*31 + uint(span[len(span)-1])) % uint(len(c.memo))
	if s := c.memo[h]; s == string(span) {
		return s
	}
	s := string(span)
	c.memo[h] = s
	return s
}

// memoHit probes the memo with a raw, not-yet-validated span and reports
// whether it holds a byte-equal string. Every memo entrant was
// content-validated by its producer (qname, a clean attribute value,
// clean character data), so a hit proves the span clean and valid without
// rescanning it — the basis of the attribute-value fast path.
func (c *Cursor) memoHit(span []byte) (string, bool) {
	n := len(span)
	if n == 0 || n > maxInternLen {
		return "", false
	}
	h := (uint(n)*131 + uint(span[0])*31 + uint(span[n-1])) % uint(len(c.memo))
	if s := c.memo[h]; s == string(span) {
		return s, true
	}
	return "", false
}

// plainAttrByte classifies the bytes attribute-value scanning can accept
// without further checks: printable ASCII plus tab and newline, minus '<',
// '&' and '\r' (the closing quote is compared before the table). One table
// load replaces the per-byte switch on the hot scanning loop.
var plainAttrByte = func() (attr [256]bool) {
	for i := 0x20; i < 0x80; i++ {
		attr[i] = true
	}
	attr['\t'], attr['\n'] = true, true
	attr['<'], attr['&'] = false, false
	return
}()

var cursorPool = sync.Pool{New: func() interface{} { return new(Cursor) }}

// AcquireCursor returns a pooled cursor positioned at the start of data. A
// UTF-8 byte-order mark is tolerated, as in the tree parser.
func AcquireCursor(data []byte) *Cursor {
	c := cursorPool.Get().(*Cursor)
	c.data = data
	c.pos = 0
	if bytes.HasPrefix(data, bomPrefix) {
		c.pos = 3
	}
	c.ns = c.ns[:0]
	c.open = c.open[:0]
	c.selfClose = false
	c.textSpan = nil
	return c
}

// Release returns the cursor to the pool. The cursor must not be used
// afterwards.
func (c *Cursor) Release() {
	c.data = nil
	c.textSpan = nil
	// pend and ns hold byte slices aliasing the document; zero them so a
	// pooled cursor does not pin a released request buffer.
	for i := range c.pend {
		c.pend[i] = pendingAttr{}
	}
	c.pend = c.pend[:0]
	for i := range c.ns {
		c.ns[i] = nsBinding{}
	}
	c.ns = c.ns[:0]
	c.space, c.name = "", ""
	cursorPool.Put(c)
}

// PrologueSeed describes a fixed byte-literal document prologue whose
// parse outcome is known ahead of time: the namespace bindings it declares
// and the elements it leaves open. Callers that emit a canonical prologue
// themselves (the SOAP encoder always writes the same envelope opening)
// verify the prefix with one memcmp and adopt the outcome, skipping
// tokenisation of the hottest, most redundant part of every message.
type PrologueSeed struct {
	// Text is the exact prologue byte sequence.
	Text []byte
	// Prefixes and URIs are the namespace bindings the prologue declares,
	// in order; they are treated as declared on the outermost open element.
	Prefixes [][]byte
	URIs     []string
	// OpenSpaces and OpenNames are the elements left open by the prologue,
	// outermost first, with resolved namespaces.
	OpenSpaces []string
	OpenNames  []string
}

// SkipPrologue consumes seed.Text when the document starts with it,
// adopting the declared bindings and open-element stack. Valid only before
// the first Next call; reports whether the prologue matched.
func (c *Cursor) SkipPrologue(seed *PrologueSeed) bool {
	if len(c.open) != 0 || len(c.ns) != 0 || c.selfClose {
		return false
	}
	if !bytes.HasPrefix(c.data[c.pos:], seed.Text) {
		return false
	}
	for i := range seed.Prefixes {
		c.ns = append(c.ns, nsBinding{prefix: seed.Prefixes[i], uri: seed.URIs[i]})
	}
	for i := range seed.OpenNames {
		mark := 0
		if i > 0 {
			mark = len(c.ns)
		}
		c.open = append(c.open, openElem{space: seed.OpenSpaces[i], name: seed.OpenNames[i], nsMark: mark})
	}
	c.pos += len(seed.Text)
	return true
}

// Depth is the number of currently open elements.
func (c *Cursor) Depth() int { return len(c.open) }

// Space and Name identify the current TokStart element; the namespace is
// resolved exactly as the tree parser resolves it (default namespace for
// elements, unbound prefixes resolving to the prefix itself).
func (c *Cursor) Space() string { return c.space }

// Name returns the current TokStart element's local name.
func (c *Cursor) Name() string { return c.name }

// Attr looks up an attribute of the current TokStart element by local
// name with Element.Attr semantics: an unqualified attribute wins, then
// the first prefixed one. xmlns declarations are never visible here. The
// lookup works on the raw attribute spans, so elements whose attributes
// are never queried pay nothing beyond value scanning.
func (c *Cursor) Attr(name string) (string, bool) {
	for i := range c.pend {
		pa := &c.pend[i]
		if pa.prefix == nil && string(pa.local) == name {
			return pa.value, true
		}
	}
	for i := range c.pend {
		pa := &c.pend[i]
		if string(pa.local) == name {
			return pa.value, true
		}
	}
	return "", false
}

// TextIsSpace reports whether the current TokText raw span is entirely XML
// whitespace. Entity-encoded whitespace reads as non-space, which is the
// conservative direction: callers treat non-space where they expected
// formatting as a fallback trigger, never the reverse.
func (c *Cursor) TextIsSpace() bool {
	for _, b := range c.textSpan {
		if !isSpaceByte(b) {
			return false
		}
	}
	return true
}

// Text materialises the current TokText token: entities expanded and line
// endings normalised, identical to the tree parser's text handling. The
// result is exactly sized: decoding a dirty span allocates only the
// returned string.
func (c *Cursor) Text() (string, error) {
	if c.textClean {
		return c.memoLocal(c.textSpan), nil
	}
	return unescapeCursor(c.textSpan)
}

// Next advances to the next token. Any error — malformed XML or a
// construct outside the streaming subset — leaves the cursor unusable
// except for Release.
func (c *Cursor) Next() (Tok, error) {
	if c.selfClose {
		c.selfClose = false
		return c.popElem()
	}
	for {
		if c.pos >= len(c.data) {
			if len(c.open) != 0 {
				return TokEOF, errCursorMalformed
			}
			return TokEOF, nil
		}
		if c.data[c.pos] != '<' {
			return c.scanText()
		}
		c.pos++
		if c.pos >= len(c.data) {
			return TokEOF, errCursorMalformed
		}
		switch c.data[c.pos] {
		case '?':
			// Processing instructions (the XML declaration included) are
			// skipped wherever they appear, as in the tree parser.
			if !c.skipPI() {
				return TokEOF, errCursorMalformed
			}
		case '!':
			// Comments and CDATA are tree-parser territory; DTDs are
			// rejected there too, so either way the fast path stops here.
			return TokEOF, ErrCursorUnsupported
		case '/':
			c.pos++
			return c.endTag()
		default:
			return c.startTag()
		}
	}
}

// Skip consumes tokens until the element whose TokStart was just returned
// closes, discarding everything inside it.
func (c *Cursor) Skip() error {
	depth := 1
	for depth > 0 {
		tok, err := c.Next()
		if err != nil {
			return err
		}
		switch tok {
		case TokStart:
			depth++
		case TokEnd:
			depth--
		case TokEOF:
			return errCursorMalformed
		}
	}
	return nil
}

func (c *Cursor) popElem() (Tok, error) {
	f := c.open[len(c.open)-1]
	c.ns = c.ns[:f.nsMark]
	c.open = c.open[:len(c.open)-1]
	return TokEnd, nil
}

// scanText scans one run of character data up to the next '<', with the
// same validation as parser.text (both run scanCharData).
func (c *Cursor) scanText() (Tok, error) {
	end, clean, msg := scanCharData(c.data, c.pos)
	if msg != "" {
		return TokEOF, errCursorMalformed
	}
	c.textSpan = c.data[c.pos:end]
	c.textClean = clean
	c.pos = end
	return TokText, nil
}

func (c *Cursor) skipPI() bool {
	data := c.data
	i := c.pos + 1
	for i < len(data) {
		if data[i] == '?' && i+1 < len(data) && data[i+1] == '>' {
			c.pos = i + 2
			return true
		}
		i++
	}
	return false
}

// qname reads one XML name with the single-colon rule, returning prefix
// (nil when unprefixed) and local slices of the input.
func (c *Cursor) qname() (prefix, local []byte, ok bool) {
	data := c.data
	start := c.pos
	i := c.pos
	if i >= len(data) {
		return nil, nil, false
	}
	colon := -1
	ch := data[i]
	switch {
	case ch < 0x80:
		if !isNameStartByte(ch) {
			return nil, nil, false
		}
		if ch == ':' {
			colon = 0
		}
		i++
	default:
		r, size := utf8.DecodeRune(data[i:])
		if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
			return nil, nil, false
		}
		i += size
	}
	for i < len(data) {
		ch := data[i]
		if ch < 0x80 {
			if !isNameByte(ch) {
				break
			}
			if ch == ':' {
				if colon >= 0 {
					return nil, nil, false
				}
				colon = i - start
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
			return nil, nil, false
		}
		i += size
	}
	raw := data[start:i]
	c.pos = i
	// ":", "b:", ":b" are kept whole as the local name, as in the parser.
	if colon > 0 && colon < len(raw)-1 {
		return raw[:colon], raw[colon+1:], true
	}
	return nil, raw, true
}

// resolve mirrors parser.resolve over the cursor's binding stack.
func (c *Cursor) resolve(prefix []byte, element bool) string {
	if prefix == nil {
		if element {
			for i := len(c.ns) - 1; i >= 0; i-- {
				if c.ns[i].prefix == nil {
					return c.ns[i].uri
				}
			}
		}
		return ""
	}
	if string(prefix) == "xml" {
		return xmlNamespace
	}
	if string(prefix) == "xmlns" {
		return "xmlns"
	}
	for i := len(c.ns) - 1; i >= 0; i-- {
		if c.ns[i].prefix != nil && bytes.Equal(c.ns[i].prefix, prefix) {
			return c.ns[i].uri
		}
	}
	return c.memoSpan(prefix)
}

func (c *Cursor) skipSpace() {
	for c.pos < len(c.data) && isSpaceByte(c.data[c.pos]) {
		c.pos++
	}
}

func (c *Cursor) startTag() (Tok, error) {
	nsMark := len(c.ns)
	prefix, local, ok := c.qname()
	if !ok {
		return TokEOF, errCursorMalformed
	}
	c.pend = c.pend[:0]
	c.selfClose = false
	for {
		c.skipSpace()
		if c.pos >= len(c.data) {
			return TokEOF, errCursorMalformed
		}
		ch := c.data[c.pos]
		if ch == '>' {
			c.pos++
			break
		}
		if ch == '/' {
			c.pos++
			if c.pos >= len(c.data) || c.data[c.pos] != '>' {
				return TokEOF, errCursorMalformed
			}
			c.pos++
			c.selfClose = true
			break
		}
		aprefix, alocal, ok := c.qname()
		if !ok {
			return TokEOF, errCursorMalformed
		}
		c.skipSpace()
		if c.pos >= len(c.data) || c.data[c.pos] != '=' {
			return TokEOF, errCursorMalformed
		}
		c.pos++
		c.skipSpace()
		val, err := c.attrValue()
		if err != nil {
			return TokEOF, err
		}
		switch {
		case aprefix == nil && string(alocal) == "xmlns":
			c.ns = append(c.ns, nsBinding{prefix: nil, uri: val})
		case string(aprefix) == "xmlns":
			c.ns = append(c.ns, nsBinding{prefix: alocal, uri: val})
		default:
			c.pend = append(c.pend, pendingAttr{prefix: aprefix, local: alocal, value: val})
		}
	}
	c.space = c.resolve(prefix, true)
	c.name = c.memoSpan(local)
	if len(c.open) >= maxDepth {
		return TokEOF, errCursorMalformed
	}
	c.open = append(c.open, openElem{space: c.space, name: c.name, nsMark: nsMark})
	return TokStart, nil
}

func (c *Cursor) attrValue() (string, error) {
	data := c.data
	if c.pos >= len(data) || (data[c.pos] != '"' && data[c.pos] != '\'') {
		return "", errCursorMalformed
	}
	q := data[c.pos]
	c.pos++
	start := c.pos
	// Fast path: find the closing quote with IndexByte and probe the memo
	// with the raw span. A clean value contains neither entities nor its
	// own quote character, so a byte-equal memo hit is exactly the
	// already-validated value — namespace URIs and xsi type attributes,
	// re-declared on every RPC parameter, land here after the first one.
	if rel := bytes.IndexByte(data[start:], q); rel > 0 {
		if s, ok := c.memoHit(data[start : start+rel]); ok {
			c.pos = start + rel + 1
			return s, nil
		}
	}
	i := c.pos
	clean := true
	for {
		if i >= len(data) {
			return "", errCursorMalformed
		}
		ch := data[i]
		if ch == q {
			break
		}
		if plainAttrByte[ch] {
			i++
			continue
		}
		switch {
		case ch == '&' || ch == '\r':
			clean = false
			i++
		case ch < 0x80: // '<' or a control character outside tab/newline
			return "", errCursorMalformed
		default:
			r, size := utf8.DecodeRune(data[i:])
			if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
				return "", errCursorMalformed
			}
			i += size
		}
	}
	span := data[start:i]
	c.pos = i + 1
	if clean {
		return c.memoLocal(span), nil
	}
	return unescapeCursor(span)
}

func (c *Cursor) endTag() (Tok, error) {
	prefix, local, ok := c.qname()
	if !ok {
		return TokEOF, errCursorMalformed
	}
	c.skipSpace()
	if c.pos >= len(c.data) || c.data[c.pos] != '>' {
		return TokEOF, errCursorMalformed
	}
	c.pos++
	if len(c.open) == 0 {
		return TokEOF, errCursorMalformed
	}
	f := c.open[len(c.open)-1]
	// Compare the resolved name, as parser.endTag does.
	if f.name != string(local) || f.space != c.resolve(prefix, true) {
		return TokEOF, errCursorMalformed
	}
	return c.popElem()
}

// unescapeCursor decodes a dirty span with the tree parser's kernel; the
// cursor only needs to know that decoding failed, not why.
func unescapeCursor(span []byte) (string, error) {
	s, msg := unescapeString(span, true)
	if msg != "" {
		return "", errCursorMalformed
	}
	return s, nil
}
