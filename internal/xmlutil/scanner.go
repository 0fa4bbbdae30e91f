// scanner.go is the tree parser behind Parse, ParseBytes, ParseString and
// the subtrees Cursor.Carve builds in a pooled arena, and holds the text
// kernels (scan, unescape, entity decoding) both consumers of the markup
// lexer (lexer.go) share. Because the parser and the streaming Cursor lex
// markup with the same code, they accept the same markup by construction.
// The parser adds what only a tree needs: character data accumulated per
// element (CDATA sections included) and slab-allocated Element nodes.
//
// Performance model:
//
//   - Names, unbound prefixes, namespace URIs, clean attribute values and
//     clean leaf text of up to maxMemoLen bytes are made through the
//     lexer's per-instance memo, so once a pooled parser has seen the
//     recurring vocabulary of a dialect it costs no allocation, and a
//     document of fresh names costs one string per name. Attributes are
//     resolved eagerly.
//   - Element nodes are carved out of slabs. Plain ParseBytes hands the
//     slabs to the caller inside the returned tree (forever-owned); an
//     arena (AcquireArena, filled by Cursor.Carve) recycles slabs,
//     attribute storage, and parser state through a sync.Pool once the
//     caller Releases the Doc.
//   - Character data and attribute values allocate only the final string:
//     unescaping runs only when an entity reference or a carriage return
//     (which XML requires to be normalised) is present, and an element
//     whose text comes in several runs joins them in one parser-owned
//     buffer, so the work is linear in the text however it is split.
//
// The parser matches encoding/xml's strictness for every construct it
// supports (character validity, "]]>" in character data, "--" in comments,
// entity syntax, "\r" normalisation, one colon per name, namespace
// scoping), enforced differentially by FuzzParseRoundTrip.
package xmlutil

import (
	"bytes"
	"fmt"
	"sync"
	"unicode/utf8"
)

// maxEntityLen bounds the distance scanned for the ';' of an entity.
const maxEntityLen = 64

// Pool trim thresholds: a pooled parser that handled one huge document must
// not pin that memory forever.
const (
	maxPooledElems = 8192
	maxPooledAttrs = 2048
	maxPooledText  = 64 << 10
)

// --- parser state ----------------------------------------------------------

// frame is the tree state of one open element; the lexer's open stack
// holds its name, in step with the parser's stack.
type frame struct {
	el *Element
	// raw holds a pending clean text span (no entity, no '\r') aliasing the
	// input; it is materialised lazily so whitespace-only formatting between
	// child elements never allocates.
	raw []byte
	// joined records that the element's runs are being joined in the
	// parser's textBuf, from offset start on.
	joined bool
	start  int
}

// parser is the pooled tree builder over the lexer. Retained-mode parsers
// (Parse, ParseBytes, ParseString) detach their element slabs into the
// returned tree and recycle only the lexer state; arena-mode parsers
// (AcquireArena) keep the slabs and recycle everything when the Doc is
// released.
type parser struct {
	lexer
	root  *Element
	stack []frame

	// Element arena: nodes are handed out of slabs in order.
	slabs    [][]Element
	slabI    int
	elemI    int
	nextSlab int

	// attrs is the carving slab for Attr slices: each element's attributes
	// are contiguous, so one backing array serves the whole document.
	attrs []Attr

	// textBuf joins the runs of the open elements whose text is split
	// (joined frames), each from its frame's start. A frame's runs are
	// contiguous because an element's children close, and give their
	// bytes back, before its next run arrives.
	textBuf []byte
}

func newParser() interface{} { return new(parser) }

var (
	retainedPool = sync.Pool{New: newParser}
	arenaPool    = sync.Pool{New: newParser}
)

func (p *parser) reset(data []byte) {
	p.lexer.reset(data)
	p.root = nil
	p.stack = p.stack[:0]
	p.slabI = 0
	p.elemI = 0
	p.attrs = p.attrs[:0]
	p.textBuf = p.textBuf[:0]
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

// --- main loop -------------------------------------------------------------

// run parses from pos to the end of the document. With carve set it
// returns as soon as the first element it starts has closed: the lexer was
// seeded mid-document by Cursor.Carve and parses that one subtree.
func (p *parser) run(carve bool) (*Element, error) {
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
			span, clean, cdata, err := p.bang()
			if err != nil {
				return nil, err
			}
			// CDATA content is literal: no entity expansion, but line
			// endings are still normalised.
			if cdata {
				if err := p.addText(span, clean, false); err != nil {
					return nil, err
				}
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
		if carve && len(p.stack) == 0 {
			return p.root, nil
		}
	}
	if err := p.finish(); err != nil {
		return nil, err
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

// addText accumulates one text span onto the open element. A lone clean
// span stays a zero-copy slice until the element closes; once a second
// run arrives (split off by a comment, CDATA section, processing
// instruction or child element) or a span needs unescaping, the runs are
// joined in the parser's textBuf and endTag builds the string once.
func (p *parser) addText(span []byte, clean, entities bool) error {
	if len(p.stack) == 0 {
		// Character data outside the root is discarded (the old decoder
		// ignored it too) but must still be validated so malformed entities
		// are rejected wherever they appear.
		if !clean && entities {
			_, err := p.unescape(span, true)
			return err
		}
		return nil
	}
	f := &p.stack[len(p.stack)-1]
	if clean && !f.joined && f.raw == nil {
		f.raw = span
		return nil
	}
	if !f.joined {
		f.joined, f.start = true, len(p.textBuf)
		p.textBuf = append(p.textBuf, f.raw...)
		f.raw = nil
	}
	if clean {
		p.textBuf = append(p.textBuf, span...)
		return nil
	}
	var msg string
	if p.textBuf, msg = unescapeTo(p.textBuf, span, entities); msg != "" {
		return p.errf("%s", msg)
	}
	return nil
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

// --- tags ------------------------------------------------------------------

// startTag builds the element of a start tag the lexer has lexed: its
// name, every attribute resolved and its name memoised now, and its place
// in the tree.
func (p *parser) startTag() error {
	space, name, selfClose, err := p.lexer.startTag()
	if err != nil {
		return err
	}
	el := p.newElement()
	el.Space, el.Name = space, name
	if len(p.pend) > 0 {
		start := len(p.attrs)
		for _, pa := range p.pend {
			space := ""
			if pa.prefix != nil {
				space = p.resolve(pa.prefix, false)
			}
			p.attrs = append(p.attrs, Attr{Space: space, Name: p.str(pa.local), Value: pa.value})
		}
		el.Attrs = p.attrs[start:len(p.attrs):len(p.attrs)]
	}
	if len(p.stack) == 0 {
		p.root = el
	} else {
		parent := p.stack[len(p.stack)-1].el
		parent.Children = append(parent.Children, el)
	}
	if selfClose {
		p.pop()
		return nil
	}
	p.stack = append(p.stack, frame{el: el})
	return nil
}

// endTag closes the innermost element once the lexer has matched its end
// tag, settling the element's text.
func (p *parser) endTag() error {
	if err := p.lexer.endTag(); err != nil {
		return err
	}
	f := &p.stack[len(p.stack)-1]
	el := f.el
	if f.raw != nil {
		rawText := f.raw
		if len(el.Children) > 0 {
			// Whitespace between child elements is formatting, not content;
			// leaf text is preserved verbatim because portal payloads (job
			// output, file contents) carry significant whitespace.
			rawText = bytes.TrimSpace(rawText)
		}
		el.Text = p.str(rawText)
	} else if f.joined {
		text := p.textBuf[f.start:]
		if len(el.Children) > 0 {
			text = bytes.TrimSpace(text)
		}
		el.Text = string(text)
		p.textBuf = p.textBuf[:f.start]
	}
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
	root, err := p.run(false)
	p.release()
	p.root = nil
	p.slabs = nil // owned by the returned tree now
	p.nextSlab = 0
	p.attrs = nil
	if cap(p.textBuf) > maxPooledText {
		p.textBuf = nil
	}
	retainedPool.Put(p)
	return root, err
}

// Doc is a pooled element arena, which Cursor.Carve builds subtrees in.
// It owns every Element carved into it: Release recycles them (and their
// attribute storage) for the next carve, so no node or slice reached from
// a carved tree may be used after Release. Strings taken out of the tree
// (names, text, attribute values) are ordinary Go strings and remain valid
// forever.
type Doc struct {
	p *parser
}

// AcquireArena returns an empty pooled element arena. The Doc is
// heap-allocated per acquire (never pooled): once Release has detached
// it, its p stays nil forever, so a late or duplicate Release through a
// stale pointer can never free an arena that a later carve is using.
func AcquireArena() *Doc {
	p := arenaPool.Get().(*parser)
	p.reset(nil)
	return &Doc{p: p}
}

// Release returns the document's element arena to the pool. Calling it twice
// is a no-op; using the tree after Release corrupts later parses.
func (d *Doc) Release() {
	p := d.p
	if p == nil {
		return
	}
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
	if cap(p.textBuf) > maxPooledText {
		p.textBuf = nil
	}
	arenaPool.Put(p)
}
