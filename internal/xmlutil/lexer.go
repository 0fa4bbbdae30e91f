// lexer.go is the one markup lexer of the package. Both pooled consumers
// embed it: the tree parser (scanner.go), which carves an element tree out
// of what it returns, and the streaming Cursor (cursor.go), which hands it
// out token by token. It owns names and the single-colon prefix rule,
// namespace bindings and prefix resolution, whitespace, processing
// instructions, comments, CDATA sections, the rejection of DTDs and other
// <!...> directives, start tags with their attributes, quoted attribute values,
// end-tag matching and the document-level rules (one root, every element
// closed, bounded depth). Its errors are the positioned parse errors the
// tree parser returns, with the same text.
//
// The lexer hands back spans of the input, and it owns the one policy that
// turns a clean span into a string: every name, unbound prefix, namespace
// URI, clean attribute value and clean leaf text of up to maxMemoLen
// bytes, whichever consumer asks, goes through the lexer's memo. The memo
// belongs to one pooled instance, so no string state is shared between
// goroutines.
package xmlutil

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"unicode/utf8"
)

const (
	// xmlNamespace is the URI the reserved "xml" prefix resolves to.
	xmlNamespace = "http://www.w3.org/XML/1998/namespace"
	// maxDepth bounds element nesting so a hostile document cannot wind the
	// stack (and the render recursion of whoever consumes the tree) out of
	// control.
	maxDepth = 1000
)

var bomPrefix = []byte{0xEF, 0xBB, 0xBF}

// memoSlots (1<<memoBits) is the number of slots in each lexer's memo,
// and maxMemoLen the longest span it keeps: a longer one is payload rather
// than vocabulary, and is made into a string each time.
const (
	memoBits   = 12
	memoSlots  = 1 << memoBits
	maxMemoLen = 64
)

// memo is the lexer's string policy: a direct-mapped cache from recently
// seen clean spans to the strings made from them. RPC traffic re-sends the
// same vocabulary every request ("xsd:string", the xsi namespace URI,
// parameter names, scheduler names), and the memo turns it into string
// reuse. It belongs to its lexer and survives pool cycles, so it warms once
// per pooled instance, and a miss costs one string and one slot overwrite
// however many distinct spans a document holds. A full comparison guards
// every hit, so a collision only costs a miss.
//
// Only validated clean spans enter it: names, unbound prefixes, attribute
// values with no entity reference and no '\r', and clean character data.
// Each of those is also a valid clean attribute value, so a hit in known
// proves a raw span clean and valid without scanning it.
type memo [memoSlots]string

// memoSlot hashes every byte of span, eight at a time: each word is mixed
// in by a multiplication, and a span whose length is not a multiple of
// eight ends on a word that overlaps the one before it. Every byte counts,
// so namespace URIs and attribute values that share a length and their
// first and last bytes still spread over the slots.
func memoSlot(span []byte) uint32 {
	const k = 0x9E3779B97F4A7C15 // 2^64 / golden ratio, odd
	n := len(span)
	h := uint64(n) * k
	switch {
	case n >= 8:
		for i := 0; i < n-8; i += 8 {
			h = (h ^ binary.LittleEndian.Uint64(span[i:])) * k
		}
		h = (h ^ binary.LittleEndian.Uint64(span[n-8:])) * k
	case n >= 4:
		h = (h ^ uint64(binary.LittleEndian.Uint32(span)) ^ uint64(binary.LittleEndian.Uint32(span[n-4:]))<<32) * k
	case n > 0:
		h = (h ^ uint64(span[0]) ^ uint64(span[n/2])<<8 ^ uint64(span[n-1])<<16) * k
	}
	// A product's top bits are the ones that depend on every input bit.
	return uint32(h >> (64 - memoBits))
}

// str returns the string for a validated clean span.
func (m *memo) str(span []byte) string {
	if len(span) == 0 {
		return ""
	}
	if len(span) > maxMemoLen {
		return string(span)
	}
	e := &m[memoSlot(span)]
	if *e != string(span) { // no alloc: compiler-recognised compare
		*e = string(span)
	}
	return *e
}

// known returns the memo's string equal to a raw, not yet validated span,
// if it holds one: the attribute-value fast path.
func (m *memo) known(span []byte) (string, bool) {
	if len(span) == 0 || len(span) > maxMemoLen {
		return "", false
	}
	if e := &m[memoSlot(span)]; *e == string(span) {
		return *e, true
	}
	return "", false
}

// nsBinding is one in-scope namespace declaration. prefix slices the input
// (valid only during the parse); nil prefix is the default namespace.
type nsBinding struct {
	prefix []byte
	uri    string
}

// pendingAttr is one lexed attribute of the current start tag, namespace
// declarations excluded. Its name stays a pair of raw spans: declarations
// on the same tag may follow the attributes that use them, so consumers
// resolve names only once the whole tag has been lexed.
type pendingAttr struct {
	prefix []byte
	local  []byte
	value  string
}

// openTag is one open element: its qualified name as written, which its
// end tag must repeat, and the namespace-stack depth to restore when it
// closes.
type openTag struct {
	raw    []byte
	nsMark int
}

// lexer is the markup lexer state a consumer embeds.
type lexer struct {
	data []byte
	pos  int
	// memo outlives reset and release: its strings never alias the input.
	memo

	ns   []nsBinding
	pend []pendingAttr
	open []openTag
	// rooted records that the root element has been seen.
	rooted bool
}

// reset positions the lexer at the start of data, past a UTF-8 byte-order
// mark.
func (l *lexer) reset(data []byte) {
	l.data = data
	l.pos = 0
	if bytes.HasPrefix(data, bomPrefix) {
		l.pos = 3
	}
	l.ns = l.ns[:0]
	l.pend = l.pend[:0]
	l.open = l.open[:0]
	l.rooted = false
}

// release drops the lexer's live references into the document, so a
// pooled consumer does not pin a request buffer that has been recycled.
func (l *lexer) release() {
	l.data = nil
	clear(l.ns)
	clear(l.pend)
	// Closed elements stay in the backing array past len(l.open).
	clear(l.open[:cap(l.open)])
	l.ns, l.pend, l.open = l.ns[:0], l.pend[:0], l.open[:0]
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("xmlutil: parse at byte %d: %s", l.pos, fmt.Sprintf(format, args...))
}

// --- character classes -----------------------------------------------------

// validXMLChar reports whether r is in the XML 1.0 Char production, the same
// range encoding/xml enforces.
func validXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		(0x20 <= r && r <= 0xD7FF) ||
		(0xE000 <= r && r <= 0xFFFD) ||
		(0x10000 <= r && r <= 0x10FFFF)
}

func isNameStartByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':'
}

// nameByte marks the ASCII bytes that may continue a name, the colon
// excepted: qname counts colons.
var nameByte = func() (t [256]bool) {
	for c := 0; c < 0x80; c++ {
		t[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == '.' || c == '-'
	}
	return
}()

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// plainAttrByte classifies the bytes attribute-value scanning accepts
// without further checks: printable ASCII plus tab and newline, minus '<',
// '&' and '\r'. The closing quote never reaches the table: the scan stops
// before it.
var plainAttrByte = func() (attr [256]bool) {
	for i := 0x20; i < 0x80; i++ {
		attr[i] = true
	}
	attr['\t'], attr['\n'] = true, true
	attr['<'], attr['&'] = false, false
	return
}()

func (l *lexer) skipSpace() {
	for l.pos < len(l.data) && isSpaceByte(l.data[l.pos]) {
		l.pos++
	}
}

// --- document structure ----------------------------------------------------

// finish checks the document-level rules at the end of the input.
func (l *lexer) finish() error {
	if len(l.open) != 0 {
		return errors.New("xmlutil: parse: unterminated document")
	}
	if !l.rooted {
		return errors.New("xmlutil: parse: empty document")
	}
	return nil
}

// pop closes the innermost open element, dropping its namespace bindings.
func (l *lexer) pop() {
	l.ns = l.ns[:l.open[len(l.open)-1].nsMark]
	l.open = l.open[:len(l.open)-1]
}

// skipPI skips a processing instruction (the XML declaration included,
// wherever it appears) without interpreting it; pos is on the '?'.
func (l *lexer) skipPI() error {
	data := l.data
	i := l.pos + 1
	for i < len(data) {
		if data[i] == '?' && i+1 < len(data) && data[i+1] == '>' {
			l.pos = i + 2
			return nil
		}
		i++
	}
	l.pos = i
	return l.errf("unterminated processing instruction")
}

// bang lexes a "<!" construct; pos is on the '!'. A comment is skipped. A
// CDATA section is returned as its raw span, with clean reporting that it
// holds no '\r', '&' or '<'. Its content is literal, so only line endings
// need normalising, but a span with '&' or '<' is no valid attribute value
// and so must not enter the memo, whose hits the attribute fast path
// trusts. DTDs and other directives are rejected outright: the portal
// dialects never use them, and refusing them closes the classic
// entity-expansion attack surface.
func (l *lexer) bang() (span []byte, clean, cdata bool, err error) {
	rest := l.data[l.pos+1:]
	switch {
	case bytes.HasPrefix(rest, []byte("--")):
		l.pos += 3
		return nil, false, false, l.comment()
	case bytes.HasPrefix(rest, []byte("[CDATA[")):
		l.pos += 8
		span, clean, err = l.cdata()
		return span, clean, true, err
	default:
		return nil, false, false, l.errf("directives (<!...>) are not supported")
	}
}

func (l *lexer) comment() error {
	data := l.data
	i := l.pos
	for i < len(data) {
		c := data[i]
		switch {
		case c == '-' && i+1 < len(data) && data[i+1] == '-':
			if i+2 < len(data) && data[i+2] == '>' {
				l.pos = i + 3
				return nil
			}
			l.pos = i
			return l.errf("invalid sequence \"--\" not allowed in comments")
		case c < 0x20 && c != '\t' && c != '\n' && c != '\r':
			l.pos = i
			return l.errf("illegal character code %U", rune(c))
		case c < 0x80:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
				l.pos = i
				return l.errf("illegal character in comment")
			}
			i += size
		}
	}
	l.pos = i
	return l.errf("unterminated comment")
}

func (l *lexer) cdata() (span []byte, clean bool, err error) {
	data := l.data
	start := l.pos
	i := l.pos
	clean = true
	for i < len(data) {
		c := data[i]
		switch {
		case c == ']' && i+2 < len(data) && data[i+1] == ']' && data[i+2] == '>':
			l.pos = i + 3
			return data[start:i], clean, nil
		case c == '\r' || c == '&' || c == '<':
			clean = false
			i++
		case c < 0x20 && c != '\t' && c != '\n':
			l.pos = i
			return nil, false, l.errf("illegal character code %U", rune(c))
		case c < 0x80:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
				l.pos = i
				return nil, false, l.errf("illegal character in CDATA section")
			}
			i += size
		}
	}
	l.pos = i
	return nil, false, l.errf("unterminated CDATA section")
}

// --- names and namespaces --------------------------------------------------

// qname reads one XML name, enforcing the single-colon prefix rule, and
// returns its prefix/local split (prefix nil when unprefixed); the name as
// written is what pos moved over. Only slices of the input are returned.
func (l *lexer) qname() (prefix, local []byte, err error) {
	data := l.data
	start := l.pos
	i := l.pos
	if i >= len(data) {
		return nil, nil, l.errf("expected name")
	}
	colon := -1
	c := data[i]
	switch {
	case c < 0x80:
		if !isNameStartByte(c) {
			return nil, nil, l.errf("expected name, found %q", rune(c))
		}
		if c == ':' {
			colon = 0
		}
		i++
	default:
		r, size := utf8.DecodeRune(data[i:])
		if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
			return nil, nil, l.errf("invalid rune in name")
		}
		i += size
	}
	for i < len(data) {
		c := data[i]
		if nameByte[c] {
			i++
			continue
		}
		if c == ':' {
			if colon >= 0 {
				l.pos = i
				return nil, nil, l.errf("name with more than one colon")
			}
			colon = i - start
			i++
			continue
		}
		if c < 0x80 {
			break
		}
		r, size := utf8.DecodeRune(data[i:])
		if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
			l.pos = i
			return nil, nil, l.errf("invalid rune in name")
		}
		i += size
	}
	raw := data[start:i]
	l.pos = i
	// A name with an empty prefix or local part (":", "b:", ":b") is not
	// treated as namespaced: encoding/xml keeps it whole as the local name.
	if colon > 0 && colon < len(raw)-1 {
		return raw[:colon], raw[colon+1:], nil
	}
	return nil, raw, nil
}

// resolve maps a prefix to its namespace URI under the current bindings,
// mirroring encoding/xml: the default namespace applies only to elements,
// "xml" and "xmlns" are reserved, and an unbound prefix resolves to the
// prefix itself.
func (l *lexer) resolve(prefix []byte, element bool) string {
	if prefix == nil {
		if element {
			for i := len(l.ns) - 1; i >= 0; i-- {
				if l.ns[i].prefix == nil {
					return l.ns[i].uri
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
	for i := len(l.ns) - 1; i >= 0; i-- {
		if l.ns[i].prefix != nil && bytes.Equal(l.ns[i].prefix, prefix) {
			return l.ns[i].uri
		}
	}
	return l.str(prefix)
}

// --- tags ------------------------------------------------------------------

// startTag lexes a start tag; pos is just past its '<'. Namespace
// declarations are pushed onto ns, every other attribute lands in pend,
// and the element is pushed onto open, self-closing ones included: the
// consumer pops those once it is done with the tag, so their attributes
// can still be resolved against their own declarations.
func (l *lexer) startTag() (space, name string, selfClose bool, err error) {
	nsMark, at := len(l.ns), l.pos
	prefix, local, err := l.qname()
	if err != nil {
		return "", "", false, err
	}
	rawName := l.data[at:l.pos]
	l.pend = l.pend[:0]
	for {
		l.skipSpace()
		if l.pos >= len(l.data) {
			return "", "", false, l.errf("unexpected EOF in element <%s>", rawName)
		}
		c := l.data[l.pos]
		if c == '>' {
			l.pos++
			break
		}
		if c == '/' {
			l.pos++
			if l.pos >= len(l.data) || l.data[l.pos] != '>' {
				return "", "", false, l.errf("expected /> in element <%s>", rawName)
			}
			l.pos++
			selfClose = true
			break
		}
		aprefix, alocal, err := l.qname()
		if err != nil {
			return "", "", false, err
		}
		l.skipSpace()
		if l.pos >= len(l.data) || l.data[l.pos] != '=' {
			return "", "", false, l.errf("attribute name without = in element <%s>", rawName)
		}
		l.pos++
		l.skipSpace()
		val, err := l.attrValue()
		if err != nil {
			return "", "", false, err
		}
		switch {
		case aprefix == nil && string(alocal) == "xmlns":
			l.ns = append(l.ns, nsBinding{prefix: nil, uri: val})
		case string(aprefix) == "xmlns":
			l.ns = append(l.ns, nsBinding{prefix: alocal, uri: val})
		default:
			l.pend = append(l.pend, pendingAttr{prefix: aprefix, local: alocal, value: val})
		}
	}
	space = l.resolve(prefix, true)
	name = l.str(local)
	if len(l.open) == 0 {
		if l.rooted {
			return "", "", false, errors.New("xmlutil: parse: multiple root elements")
		}
		l.rooted = true
	}
	if !selfClose && len(l.open) >= maxDepth {
		return "", "", false, l.errf("element depth exceeds %d", maxDepth)
	}
	l.open = append(l.open, openTag{raw: rawName, nsMark: nsMark})
	return space, name, selfClose, nil
}

// attrValue lexes one quoted attribute value, unescaping only when needed.
// A value the memo already holds skips the scan; any other clean value
// goes through the memo, and a value with entities or '\r' is decoded.
func (l *lexer) attrValue() (string, error) {
	data := l.data
	if l.pos >= len(data) || (data[l.pos] != '"' && data[l.pos] != '\'') {
		return "", l.errf("unquoted or missing attribute value in element")
	}
	q := data[l.pos]
	l.pos++
	start := l.pos
	// end is the closing quote, or the end of the input when there is none.
	// A clean value cannot contain its own quote, so a known span up to the
	// first one is exactly an already-validated value: namespace URIs and
	// xsi type attributes, re-declared on every RPC parameter.
	end := len(data)
	if rel := bytes.IndexByte(data[start:], q); rel >= 0 {
		end = start + rel
		if s, ok := l.known(data[start:end]); ok {
			l.pos = end + 1
			return s, nil
		}
	}
	i := start
	clean := true
	for i < end {
		c := data[i]
		if plainAttrByte[c] {
			i++
			continue
		}
		switch {
		case c == '<':
			l.pos = i
			return "", l.errf("unescaped < inside quoted string")
		case c == '&' || c == '\r':
			clean = false
			i++
		case c < 0x80: // a control character other than tab and newline
			l.pos = i
			return "", l.errf("illegal character code %U", rune(c))
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				l.pos = i
				return "", l.errf("invalid UTF-8")
			}
			if !validXMLChar(r) {
				l.pos = i
				return "", l.errf("illegal character code %U", r)
			}
			i += size
		}
	}
	if end == len(data) {
		l.pos = end
		return "", l.errf("unterminated quoted string")
	}
	span := data[start:end]
	l.pos = end + 1
	if clean {
		return l.str(span), nil
	}
	return l.unescape(span, true)
}

// unescape decodes a span with the text kernel (entity references expanded
// when entities is set, line endings normalised) into an exactly sized
// string, reporting a malformed reference as a positioned error.
func (l *lexer) unescape(span []byte, entities bool) (string, error) {
	s, msg := unescapeString(span, entities)
	if msg != "" {
		return "", l.errf("%s", msg)
	}
	return s, nil
}

// endTag lexes an end tag, pos just past its "</", checks that it closes
// the innermost open element and pops that element.
func (l *lexer) endTag() error {
	at := l.pos
	if _, _, err := l.qname(); err != nil {
		return err
	}
	raw := l.data[at:l.pos]
	l.skipSpace()
	if l.pos >= len(l.data) || l.data[l.pos] != '>' {
		return l.errf("invalid characters between </%s and >", raw)
	}
	l.pos++
	if len(l.open) == 0 {
		return errors.New("xmlutil: parse: unbalanced end element")
	}
	top := &l.open[len(l.open)-1]
	// XML's Element Type Match: the end tag repeats the start tag's name
	// byte for byte, so <p:a xmlns:p="u" xmlns:q="u"></q:a> is not well
	// formed although both names resolve alike.
	if !bytes.Equal(raw, top.raw) {
		return l.errf("element <%s> closed by </%s>", top.raw, raw)
	}
	l.pop()
	return nil
}
