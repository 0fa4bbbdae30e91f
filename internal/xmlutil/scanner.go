// scanner.go implements the hand-rolled XML token scanner behind Parse,
// ParseBytes, ParseString, and the pooled-arena decode path (ParseBytesPooled).
//
// The scanner lexes directly over []byte for the XML subset the portal wire
// formats actually use: elements, attributes, namespaces, character data,
// CDATA sections, comments, and entity references (the five predefined names
// plus decimal/hex character references). Processing instructions — including
// the XML declaration — are skipped wherever they appear; DTDs and other
// <!...> directives are rejected. A UTF-8 byte-order mark and leading
// whitespace before the document are tolerated.
//
// Performance model:
//
//   - Names and namespace URIs are resolved by slicing the input without
//     copying, then materialised through a bounded global intern table, so
//     after warm-up the recurring vocabulary of a dialect (SOAP envelope
//     names, xsi:type values, namespace URIs) costs zero allocations.
//   - Element nodes are carved out of slabs. Plain ParseBytes hands the
//     slabs to the caller inside the returned tree (forever-owned); the
//     pooled path (ParseBytesPooled) recycles slabs, attribute storage, and
//     parser state through a sync.Pool once the caller Releases the Doc.
//   - Character data and attribute values take a fast path that allocates
//     only the final string: unescaping runs only when an entity reference
//     or a carriage return (which XML requires to be normalised) is present.
//
// Compatibility: the scanner matches the strictness of the previous
// encoding/xml-token implementation for every construct it supports — XML
// character validity, "]]>" rejected in character data, "--" rejected inside
// comments, entity syntax, "\r\n"/"\r" to "\n" normalisation in text, CDATA
// and attribute values, at most one colon per name, namespace scoping with
// unbound prefixes resolving to the prefix itself — so the element trees it
// produces are identical. FuzzParseRoundTrip enforces the equivalence
// differentially against an encoding/xml reference decoder.
package xmlutil

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

const (
	// xmlNamespace is the URI the reserved "xml" prefix resolves to.
	xmlNamespace = "http://www.w3.org/XML/1998/namespace"
	// maxDepth bounds element nesting so a hostile document cannot wind the
	// stack (and the render recursion of whoever consumes the tree) out of
	// control.
	maxDepth = 1000
	// maxEntityLen bounds the distance scanned for the ';' of an entity.
	maxEntityLen = 64
)

// Pool trim thresholds: a pooled parser that handled one huge document must
// not pin that memory forever.
const (
	maxPooledElems = 8192
	maxPooledAttrs = 2048
)

// --- name/value interning --------------------------------------------------

// The intern table maps the recurring vocabulary of the wire dialects
// (element and attribute names, namespace URIs, short attribute values such
// as "xsd:string") to shared string instances. It is append-only and capped:
// once full, lookups still hit for the warm vocabulary and misses simply
// allocate per parse, so an attacker streaming unique names cannot grow it
// without bound.
//
// The table is read-mostly to an extreme degree — after the first few
// requests every parse is all hits — so it is published as a copy-on-write
// snapshot behind an atomic pointer: steady-state lookups take no lock at
// all (and every parse on every core proceeds without touching a shared
// cache line). A miss copies the current snapshot, adds the entry, and
// publishes the copy under a mutex that serialises writers only. Total
// copying work is bounded by the entry cap and paid once during warm-up.
const (
	maxInternLen     = 64
	maxInternEntries = 8192
)

var (
	internTab atomic.Pointer[map[string]string]
	internWMu sync.Mutex
)

func init() {
	tab := make(map[string]string)
	internTab.Store(&tab)
}

func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternLen {
		return string(b)
	}
	tab := *internTab.Load()
	if s, ok := tab[string(b)]; ok { // no alloc: compiler-recognised map lookup
		return s
	}
	s := string(b)
	internWMu.Lock()
	cur := *internTab.Load()
	if dup, ok := cur[s]; ok {
		// Another writer published it while we waited.
		internWMu.Unlock()
		return dup
	}
	if len(cur) < maxInternEntries {
		next := make(map[string]string, len(cur)+1)
		for k, v := range cur {
			next[k] = v
		}
		next[s] = s
		internTab.Store(&next)
	}
	internWMu.Unlock()
	return s
}

// --- parser state ----------------------------------------------------------

// nsBinding is one in-scope namespace declaration. prefix slices the input
// (valid only during the parse); nil prefix is the default namespace.
type nsBinding struct {
	prefix []byte
	uri    string
}

// frame is one open element on the parse stack.
type frame struct {
	el *Element
	// rawName is the tag name exactly as written, for error messages.
	rawName []byte
	// raw holds a pending clean text span (no entity, no '\r') aliasing the
	// input; it is materialised lazily so whitespace-only formatting between
	// child elements never allocates.
	raw []byte
	// mat records that Text has been materialised through the slow path.
	mat bool
	// nsMark is the namespace stack depth when the element opened.
	nsMark int
}

// pendingAttr is one lexed attribute awaiting namespace resolution: decls on
// the same tag may appear after the attributes that use them, so attributes
// materialise only once the whole tag has been scanned.
type pendingAttr struct {
	prefix []byte
	local  []byte
	value  string
}

// parser is the pooled scanner state. Retained-mode parsers (Parse,
// ParseBytes, ParseString) detach their element slabs into the returned tree
// and recycle only the lexer state; arena-mode parsers (ParseBytesPooled)
// keep the slabs and recycle everything when the Doc is released.
type parser struct {
	data []byte
	pos  int
	root *Element

	stack []frame
	ns    []nsBinding
	pend  []pendingAttr

	// Element arena: nodes are handed out of slabs in order.
	slabs    [][]Element
	slabI    int
	elemI    int
	nextSlab int

	// attrs is the carving slab for Attr slices: each element's attributes
	// are contiguous, so one backing array serves the whole document.
	attrs []Attr
}

var (
	retainedPool = sync.Pool{New: func() interface{} { return new(parser) }}
	arenaPool    = sync.Pool{New: func() interface{} { return new(parser) }}
)

var bomPrefix = []byte{0xEF, 0xBB, 0xBF}

func (p *parser) reset(data []byte) {
	p.data = data
	p.pos = 0
	p.root = nil
	p.stack = p.stack[:0]
	p.ns = p.ns[:0]
	p.pend = p.pend[:0]
	p.slabI = 0
	p.elemI = 0
	p.attrs = p.attrs[:0]
	if len(p.slabs) == 0 {
		// Seed the slab size from the density of '<' so typical documents
		// fit in one allocation.
		est := bytes.Count(data, []byte{'<'})/2 + 2
		if est > 2048 {
			est = 2048
		}
		if est < 8 {
			est = 8
		}
		p.nextSlab = est
	}
}

// newElement hands out the next node from the arena, growing it on demand.
func (p *parser) newElement() *Element {
	for {
		for p.slabI < len(p.slabs) {
			slab := p.slabs[p.slabI]
			if p.elemI < len(slab) {
				el := &slab[p.elemI]
				p.elemI++
				el.Space, el.Name, el.Text = "", "", ""
				el.Attrs = nil
				el.Children = el.Children[:0]
				return el
			}
			p.slabI++
			p.elemI = 0
		}
		size := p.nextSlab
		if size < 16 {
			size = 16
		}
		p.slabs = append(p.slabs, make([]Element, size))
		p.nextSlab = size * 2
		if p.nextSlab > 4096 {
			p.nextSlab = 4096
		}
	}
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("xmlutil: parse at byte %d: %s", p.pos, fmt.Sprintf(format, args...))
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

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func (p *parser) skipSpace() {
	for p.pos < len(p.data) && isSpaceByte(p.data[p.pos]) {
		p.pos++
	}
}

// --- main loop -------------------------------------------------------------

func (p *parser) run() (*Element, error) {
	if bytes.HasPrefix(p.data, bomPrefix) {
		p.pos = 3
	}
	for p.pos < len(p.data) {
		if p.data[p.pos] != '<' {
			if err := p.text(); err != nil {
				return nil, err
			}
			continue
		}
		p.pos++
		if p.pos >= len(p.data) {
			return nil, p.errf("unexpected EOF")
		}
		switch p.data[p.pos] {
		case '?':
			if err := p.skipPI(); err != nil {
				return nil, err
			}
		case '!':
			if err := p.bang(); err != nil {
				return nil, err
			}
		case '/':
			p.pos++
			if err := p.endTag(); err != nil {
				return nil, err
			}
		default:
			if err := p.startTag(); err != nil {
				return nil, err
			}
		}
	}
	if len(p.stack) != 0 {
		return nil, errors.New("xmlutil: parse: unterminated document")
	}
	if p.root == nil {
		return nil, errors.New("xmlutil: parse: empty document")
	}
	return p.root, nil
}

// --- character data --------------------------------------------------------

// text scans one run of character data up to the next '<' (or EOF),
// validating characters as it goes. The span is recorded zero-copy when it
// needs no unescaping.
func (p *parser) text() error {
	start := p.pos
	end, clean, msg := scanCharData(p.data, start)
	p.pos = end
	if msg != "" {
		return p.errf("%s", msg)
	}
	return p.addText(p.data[start:end], clean, true)
}

// addText accumulates one text span onto the open element. Clean spans stay
// as zero-copy slices until the element closes; anything else falls back to
// string concatenation exactly as the old token loop did, because mixed
// content is vanishingly rare on the wire.
func (p *parser) addText(span []byte, clean, entities bool) error {
	if len(p.stack) == 0 {
		// Character data outside the root is discarded (the old decoder
		// ignored it too) but must still be validated so malformed entities
		// are rejected wherever they appear.
		if !clean {
			_, err := p.unescape(span, entities)
			return err
		}
		return nil
	}
	f := &p.stack[len(p.stack)-1]
	if clean && !f.mat && f.raw == nil {
		f.raw = span
		return nil
	}
	if f.raw != nil {
		f.el.Text = string(f.raw)
		f.raw = nil
	}
	s := ""
	if clean {
		s = string(span)
	} else {
		us, err := p.unescape(span, entities)
		if err != nil {
			return err
		}
		s = us
	}
	f.el.Text += s
	f.mat = true
	return nil
}

// unescape expands entity references (when entities is true) and normalises
// "\r\n" and "\r" to "\n", returning an exactly sized fresh string.
func (p *parser) unescape(span []byte, entities bool) (string, error) {
	s, msg := unescapeString(span, entities)
	if msg != "" {
		return "", p.errf("%s", msg)
	}
	return s, nil
}

// textStop marks the bytes character-data scanning must stop on to make a
// decision: '<' ends the run, ']' may open a forbidden "]]>", control
// bytes other than tab, newline and carriage return are illegal, and
// bytes from 0x80 start a multi-byte sequence to validate. '&' and '\r'
// need no decision while scanning, only a note that the run must be
// unescaped; two IndexByte passes over the finished run find them far
// more cheaply than a stop for each.
var textStop = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	t['\t'], t['\n'], t['\r'] = false, false, false
	t['<'], t[']'] = true, true
	for c := 0x80; c < 0x100; c++ {
		t[c] = true
	}
	return
}()

// scanCharData is the character-data scanner both the tree parser and the
// cursor run: it scans from i up to the next '<' (or the end of data) with
// encoding/xml's validation, and reports whether the run is clean (holds
// no '&' or '\r', so it needs no unescaping). On malformed input end is the
// offset of the offending byte and msg says what is wrong.
func scanCharData(data []byte, i int) (end int, clean bool, msg string) {
	start := i
	for {
		for i < len(data) && !textStop[data[i]] {
			i++
		}
		if i == len(data) || data[i] == '<' {
			span := data[start:i]
			return i, bytes.IndexByte(span, '&') < 0 && bytes.IndexByte(span, '\r') < 0, ""
		}
		switch c := data[i]; {
		case c == ']':
			if i+2 < len(data) && data[i+1] == ']' && data[i+2] == '>' {
				return i, false, "unescaped ]]> not in CDATA section"
			}
			i++
		case c < 0x80:
			return i, false, fmt.Sprintf("illegal character code %U", rune(c))
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return i, false, "invalid UTF-8"
			}
			if !validXMLChar(r) {
				return i, false, fmt.Sprintf("illegal character code %U", r)
			}
			i += size
		}
	}
}

// unescapeString decodes span with unescapeTo into an exactly sized
// string. The work buffer comes from the shared pool, presized to
// len(span) because decoding never lengthens its input, so once the pool
// is warm the one allocation is the returned string itself. msg is
// unescapeTo's.
func unescapeString(span []byte, entities bool) (s, msg string) {
	b := GetBuffer()
	b.Grow(len(span))
	dst, msg := unescapeTo(b.AvailableBuffer(), span, entities)
	if msg == "" {
		s = string(dst)
	}
	PutBuffer(b)
	return s, msg
}

// unescapeTo is the unescape kernel behind both the tree parser and the
// cursor. It appends span to dst with entity references expanded (when
// entities is set; CDATA passes false) and "\r\n" and "\r" normalised to
// "\n". It hops from '&' to '&' with IndexByte, copying the runs between
// them in bulk; &lt; &gt; and &amp; are decoded inline and every other
// reference by decodeEntity, whose message it returns on a malformed one.
// The output is never longer than span.
func unescapeTo(dst, span []byte, entities bool) ([]byte, string) {
	cr := bytes.IndexByte(span, '\r') >= 0
	for {
		j := -1
		if entities {
			j = bytes.IndexByte(span, '&')
		}
		run := span
		if j >= 0 {
			run = span[:j]
		}
		if cr {
			dst = appendNormalized(dst, run)
		} else {
			dst = append(dst, run...)
		}
		if j < 0 {
			return dst, ""
		}
		span = span[j:]
		switch {
		case len(span) >= 4 && string(span[:4]) == "&lt;":
			dst = append(dst, '<')
			span = span[4:]
		case len(span) >= 4 && string(span[:4]) == "&gt;":
			dst = append(dst, '>')
			span = span[4:]
		case len(span) >= 5 && string(span[:5]) == "&amp;":
			dst = append(dst, '&')
			span = span[5:]
		default:
			var n int
			var msg string
			if dst, n, msg = decodeEntity(dst, span); msg != "" {
				return dst, msg
			}
			span = span[n:]
		}
	}
}

// appendNormalized appends run to dst with "\r\n" and a lone "\r" turned
// into "\n". Runs end at '&', so a "\r\n" pair never straddles two runs.
func appendNormalized(dst, run []byte) []byte {
	for {
		k := bytes.IndexByte(run, '\r')
		if k < 0 {
			return append(dst, run...)
		}
		dst = append(dst, run[:k]...)
		dst = append(dst, '\n')
		run = run[k+1:]
		if len(run) > 0 && run[0] == '\n' {
			run = run[1:]
		}
	}
}

// decodeEntity is the one entity decoder: it decodes the reference at the
// start of b (b[0] == '&'), appending its expansion to dst, and returns the
// reference's length. It accepts the five predefined names plus decimal
// and hexadecimal character references, matching encoding/xml; anything
// else yields a message the tree parser wraps into its error.
func decodeEntity(dst, b []byte) ([]byte, int, string) {
	limit := maxEntityLen + 2
	if limit > len(b) {
		limit = len(b)
	}
	semi := -1
	for j := 1; j < limit; j++ {
		if b[j] == ';' {
			semi = j
			break
		}
	}
	if semi < 1 {
		return dst, 0, "invalid character entity (no semicolon)"
	}
	name := b[1:semi]
	if len(name) == 0 {
		return dst, 0, "invalid character entity &;"
	}
	if name[0] == '#' {
		digits := name[1:]
		base := 10
		if len(digits) > 0 && digits[0] == 'x' {
			base = 16
			digits = digits[1:]
		}
		if len(digits) == 0 {
			return dst, 0, fmt.Sprintf("invalid character entity &%s;", name)
		}
		var r rune
		for _, d := range digits {
			var v rune
			switch {
			case '0' <= d && d <= '9':
				v = rune(d - '0')
			case base == 16 && 'a' <= d && d <= 'f':
				v = rune(d-'a') + 10
			case base == 16 && 'A' <= d && d <= 'F':
				v = rune(d-'A') + 10
			default:
				return dst, 0, fmt.Sprintf("invalid character entity &%s;", name)
			}
			r = r*rune(base) + v
			if r > 0x10FFFF {
				return dst, 0, fmt.Sprintf("illegal character code in entity &%s;", name)
			}
		}
		if !utf8.ValidRune(r) || !validXMLChar(r) {
			return dst, 0, fmt.Sprintf("illegal character code %U", r)
		}
		return utf8.AppendRune(dst, r), semi + 1, ""
	}
	var exp byte
	switch string(name) {
	case "amp":
		exp = '&'
	case "lt":
		exp = '<'
	case "gt":
		exp = '>'
	case "apos":
		exp = '\''
	case "quot":
		exp = '"'
	default:
		return dst, 0, fmt.Sprintf("invalid character entity &%s;", name)
	}
	return append(dst, exp), semi + 1, ""
}

// --- comments, CDATA, PIs, directives --------------------------------------

// bang dispatches "<!" constructs: comments and CDATA are part of the
// supported subset; DTDs and other directives are rejected outright (the
// portal dialects never use them, and refusing them closes the classic
// entity-expansion attack surface).
func (p *parser) bang() error {
	rest := p.data[p.pos+1:]
	switch {
	case bytes.HasPrefix(rest, []byte("--")):
		p.pos += 3
		return p.comment()
	case bytes.HasPrefix(rest, []byte("[CDATA[")):
		p.pos += 8
		return p.cdata()
	default:
		return p.errf("directives (<!...>) are not supported")
	}
}

func (p *parser) comment() error {
	data := p.data
	i := p.pos
	for i < len(data) {
		c := data[i]
		switch {
		case c == '-' && i+1 < len(data) && data[i+1] == '-':
			if i+2 < len(data) && data[i+2] == '>' {
				p.pos = i + 3
				return nil
			}
			p.pos = i
			return p.errf("invalid sequence \"--\" not allowed in comments")
		case c < 0x20 && c != '\t' && c != '\n' && c != '\r':
			p.pos = i
			return p.errf("illegal character code %U", rune(c))
		case c < 0x80:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
				p.pos = i
				return p.errf("illegal character in comment")
			}
			i += size
		}
	}
	p.pos = i
	return p.errf("unterminated comment")
}

func (p *parser) cdata() error {
	data := p.data
	start := p.pos
	i := p.pos
	clean := true
	for i < len(data) {
		c := data[i]
		switch {
		case c == ']' && i+2 < len(data) && data[i+1] == ']' && data[i+2] == '>':
			span := data[start:i]
			p.pos = i + 3
			// CDATA content is literal: no entity expansion, but line
			// endings are still normalised.
			return p.addText(span, clean, false)
		case c == '\r':
			clean = false
			i++
		case c < 0x20 && c != '\t' && c != '\n':
			p.pos = i
			return p.errf("illegal character code %U", rune(c))
		case c < 0x80:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
				p.pos = i
				return p.errf("illegal character in CDATA section")
			}
			i += size
		}
	}
	p.pos = i
	return p.errf("unterminated CDATA section")
}

// skipPI skips a processing instruction (including the XML declaration,
// wherever it appears) without interpreting it.
func (p *parser) skipPI() error {
	data := p.data
	i := p.pos + 1
	for i < len(data) {
		if data[i] == '?' && i+1 < len(data) && data[i+1] == '>' {
			p.pos = i + 2
			return nil
		}
		i++
	}
	p.pos = i
	return p.errf("unterminated processing instruction")
}

// --- names and namespaces --------------------------------------------------

// qname reads one XML name, enforcing the single-colon prefix rule, and
// returns the raw bytes plus the prefix/local split (prefix nil when
// unprefixed). Only slices of the input are returned.
func (p *parser) qname() (raw, prefix, local []byte, err error) {
	data := p.data
	start := p.pos
	i := p.pos
	if i >= len(data) {
		return nil, nil, nil, p.errf("expected name")
	}
	colon := -1
	c := data[i]
	switch {
	case c < 0x80:
		if !isNameStartByte(c) {
			return nil, nil, nil, p.errf("expected name, found %q", rune(c))
		}
		if c == ':' {
			colon = 0
		}
		i++
	default:
		r, size := utf8.DecodeRune(data[i:])
		if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
			return nil, nil, nil, p.errf("invalid rune in name")
		}
		i += size
	}
	for i < len(data) {
		c := data[i]
		if c < 0x80 {
			if !isNameByte(c) {
				break
			}
			if c == ':' {
				if colon >= 0 {
					p.pos = i
					return nil, nil, nil, p.errf("name with more than one colon")
				}
				colon = i - start
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if (r == utf8.RuneError && size == 1) || !validXMLChar(r) {
			p.pos = i
			return nil, nil, nil, p.errf("invalid rune in name")
		}
		i += size
	}
	raw = data[start:i]
	p.pos = i
	// A name with an empty prefix or local part (":", "b:", ":b") is not
	// treated as namespaced: encoding/xml keeps it whole as the local name.
	if colon > 0 && colon < len(raw)-1 {
		return raw, raw[:colon], raw[colon+1:], nil
	}
	return raw, nil, raw, nil
}

// resolve maps a prefix to its namespace URI under the current bindings,
// mirroring encoding/xml: the default namespace applies only to elements,
// "xml" and "xmlns" are reserved, and an unbound prefix resolves to the
// prefix itself.
func (p *parser) resolve(prefix []byte, element bool) string {
	if prefix == nil {
		if element {
			for i := len(p.ns) - 1; i >= 0; i-- {
				if p.ns[i].prefix == nil {
					return p.ns[i].uri
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
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix != nil && bytes.Equal(p.ns[i].prefix, prefix) {
			return p.ns[i].uri
		}
	}
	return intern(prefix)
}

// --- tags ------------------------------------------------------------------

func (p *parser) startTag() error {
	nsMark := len(p.ns)
	rawName, prefix, local, err := p.qname()
	if err != nil {
		return err
	}
	p.pend = p.pend[:0]
	selfClose := false
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return p.errf("unexpected EOF in element <%s>", rawName)
		}
		c := p.data[p.pos]
		if c == '>' {
			p.pos++
			break
		}
		if c == '/' {
			p.pos++
			if p.pos >= len(p.data) || p.data[p.pos] != '>' {
				return p.errf("expected /> in element <%s>", rawName)
			}
			p.pos++
			selfClose = true
			break
		}
		_, aprefix, alocal, err := p.qname()
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '=' {
			return p.errf("attribute name without = in element <%s>", rawName)
		}
		p.pos++
		p.skipSpace()
		val, err := p.attrValue()
		if err != nil {
			return err
		}
		switch {
		case aprefix == nil && string(alocal) == "xmlns":
			p.ns = append(p.ns, nsBinding{prefix: nil, uri: val})
		case string(aprefix) == "xmlns":
			p.ns = append(p.ns, nsBinding{prefix: alocal, uri: val})
		default:
			p.pend = append(p.pend, pendingAttr{prefix: aprefix, local: alocal, value: val})
		}
	}
	el := p.newElement()
	el.Space = p.resolve(prefix, true)
	el.Name = intern(local)
	if len(p.pend) > 0 {
		start := len(p.attrs)
		for _, pa := range p.pend {
			space := ""
			if pa.prefix != nil {
				space = p.resolve(pa.prefix, false)
			}
			p.attrs = append(p.attrs, Attr{Space: space, Name: intern(pa.local), Value: pa.value})
		}
		el.Attrs = p.attrs[start:len(p.attrs):len(p.attrs)]
	}
	if len(p.stack) == 0 {
		if p.root != nil {
			return errors.New("xmlutil: parse: multiple root elements")
		}
		p.root = el
	} else {
		parent := p.stack[len(p.stack)-1].el
		parent.Children = append(parent.Children, el)
	}
	if selfClose {
		p.ns = p.ns[:nsMark]
		return nil
	}
	if len(p.stack) >= maxDepth {
		return p.errf("element depth exceeds %d", maxDepth)
	}
	p.stack = append(p.stack, frame{el: el, rawName: rawName, nsMark: nsMark})
	return nil
}

// attrValue lexes one quoted attribute value, unescaping only when needed.
// Short clean values are interned: type tags like "xsd:string" repeat on
// every message.
func (p *parser) attrValue() (string, error) {
	data := p.data
	if p.pos >= len(data) || (data[p.pos] != '"' && data[p.pos] != '\'') {
		return "", p.errf("unquoted or missing attribute value in element")
	}
	q := data[p.pos]
	p.pos++
	start := p.pos
	i := p.pos
	clean := true
	for {
		if i >= len(data) {
			p.pos = i
			return "", p.errf("unterminated quoted string")
		}
		c := data[i]
		if c == q {
			break
		}
		switch {
		case c == '<':
			p.pos = i
			return "", p.errf("unescaped < inside quoted string")
		case c == '&' || c == '\r':
			clean = false
			i++
		case c < 0x20:
			if c != '\t' && c != '\n' {
				p.pos = i
				return "", p.errf("illegal character code %U", rune(c))
			}
			i++
		case c < 0x80:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				p.pos = i
				return "", p.errf("invalid UTF-8")
			}
			if !validXMLChar(r) {
				p.pos = i
				return "", p.errf("illegal character code %U", r)
			}
			i += size
		}
	}
	span := data[start:i]
	p.pos = i + 1
	if clean {
		return intern(span), nil
	}
	return p.unescape(span, true)
}

func (p *parser) endTag() error {
	raw, prefix, local, err := p.qname()
	if err != nil {
		return err
	}
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != '>' {
		return p.errf("invalid characters between </%s and >", raw)
	}
	p.pos++
	if len(p.stack) == 0 {
		return errors.New("xmlutil: parse: unbalanced end element")
	}
	f := &p.stack[len(p.stack)-1]
	// Compare the resolved name (namespace + local), not the raw bytes:
	// <p:a xmlns:p="u" xmlns:q="u"></q:a> is well formed.
	if f.el.Name != string(local) || f.el.Space != p.resolve(prefix, true) {
		return p.errf("element <%s> closed by </%s>", f.rawName, raw)
	}
	el := f.el
	if f.raw != nil {
		rawText := f.raw
		if len(el.Children) > 0 {
			// Whitespace between child elements is formatting, not content;
			// leaf text is preserved verbatim because portal payloads (job
			// output, file contents) carry significant whitespace.
			rawText = bytes.TrimSpace(rawText)
		}
		if len(rawText) > 0 {
			el.Text = string(rawText)
		}
	} else if f.mat && len(el.Children) > 0 {
		el.Text = strings.TrimSpace(el.Text)
	}
	p.ns = p.ns[:f.nsMark]
	p.stack = p.stack[:len(p.stack)-1]
	return nil
}

// --- entry points ----------------------------------------------------------

// parseRetained runs the scanner in ownership-transfer mode: the element
// slabs leave with the returned tree and the lexer state goes back to the
// pool.
func parseRetained(data []byte) (*Element, error) {
	p := retainedPool.Get().(*parser)
	p.reset(data)
	root, err := p.run()
	p.data = nil
	p.root = nil
	p.slabs = nil // owned by the returned tree now
	p.nextSlab = 0
	p.attrs = nil
	retainedPool.Put(p)
	return root, err
}

// Doc is a document parsed into a pooled element arena by ParseBytesPooled.
// The tree under Root is fully owned by the arena: Release recycles every
// Element (and their attribute storage) for the next parse, so neither Root
// nor any node or slice reached from it may be used after Release. Strings
// taken out of the tree (names, text, attribute values) are ordinary Go
// strings and remain valid forever.
type Doc struct {
	// Root is the document root; nil after Release.
	Root *Element

	p *parser
}

// ParseBytesPooled parses an XML document into a pooled element arena. It is
// the allocation-free steady-state decode path for request-scoped documents:
// the caller must Release the Doc when done with the tree and must not
// retain any *Element past that point. Use ParseBytes when the tree outlives
// the call site.
func ParseBytesPooled(data []byte) (*Doc, error) {
	p := arenaPool.Get().(*parser)
	p.reset(data)
	root, err := p.run()
	p.data = nil
	if err != nil {
		p.root = nil
		arenaPool.Put(p)
		return nil, err
	}
	// The Doc is heap-allocated per parse (never pooled): once Release has
	// detached it, its p stays nil forever, so a late or duplicate Release
	// through a stale pointer can never free an arena that a subsequent
	// parse is using.
	return &Doc{Root: root, p: p}, nil
}

// Release returns the document's element arena to the pool. Calling it twice
// is a no-op; using the tree after Release corrupts later parses.
func (d *Doc) Release() {
	p := d.p
	if p == nil {
		return
	}
	d.Root = nil
	d.p = nil
	p.root = nil
	total := 0
	for _, s := range p.slabs {
		total += len(s)
	}
	if total > maxPooledElems {
		p.slabs = nil
		p.nextSlab = 0
	}
	if cap(p.attrs) > maxPooledAttrs {
		p.attrs = nil
	}
	arenaPool.Put(p)
}
