// cursor.go implements a pull-token reader over the tree parser's whole
// XML subset. It is the foundation of the one envelope decoder the server
// and the client share: the soap package walks tokens straight off the
// wire bytes and reads parameter and return text without materialising
// an *Element tree, and where a caller does want a tree for one element
// (a header, a literal-XML value, a fault) Carve cuts just that subtree
// into a pooled arena.
//
// Contract with the tree parser: the cursor accepts exactly the documents
// the tree parser accepts, rejects the others with the parser's error
// text, and decodes identical strings. That holds by construction: names,
// namespaces, processing instructions, comments, CDATA sections, tags,
// attribute values, end-tag matching and the document rules come from the
// lexer both embed (lexer.go), character data from the same scan and
// unescape kernels, strings from the lexer's memo, and carved subtrees
// from the parser itself. FuzzCursorVsTree checks the whole contract.
package xmlutil

import (
	"bytes"
	"sync"
)

// Tok is the kind of token Cursor.Next produced.
type Tok uint8

const (
	// TokStart is an element start tag; Space/Name/Attr describe it. A
	// self-closing tag yields TokStart followed immediately by TokEnd.
	TokStart Tok = iota
	// TokEnd is an element end tag.
	TokEnd
	// TokText is one run of character data or one CDATA section; Text
	// reads it. An element's text is the concatenation of its runs.
	TokText
	// TokEOF is the end of the document with all elements closed.
	TokEOF
)

// Cursor is a pooled pull-token reader. Acquire with AcquireCursor, walk
// with Next, and Release when done (whether or not parsing succeeded).
// Strings returned by Name, Space, Attr lookups, and Text never alias the
// input and stay valid after Release.
type Cursor struct {
	// lexer's pend holds the current start tag's non-xmlns attributes.
	// Lookups are lazy: Attr matches against their raw name spans on
	// demand, so tags whose attributes nobody reads never pay for name
	// memoising or namespace resolution.
	lexer

	// Current TokStart state; tagStart is the offset of the tag's '<'.
	space, name string
	selfClose   bool
	tagStart    int

	// Current TokText state: the raw span (aliasing data), whether it
	// needs unescaping, whether entity references in it are live (false
	// for CDATA), and whether Text has decoded it. Next decodes a span
	// with live entity references that nobody read, since the tree parser
	// checks the entities of all character data.
	textSpan     []byte
	textClean    bool
	textEntities bool
	textRead     bool
}

var cursorPool = sync.Pool{New: func() interface{} { return new(Cursor) }}

// AcquireCursor returns a pooled cursor positioned at the start of data. A
// UTF-8 byte-order mark is tolerated, as in the tree parser.
func AcquireCursor(data []byte) *Cursor {
	c := cursorPool.Get().(*Cursor)
	c.reset(data)
	c.selfClose = false
	c.textSpan = nil
	return c
}

// Release returns the cursor to the pool. The cursor must not be used
// afterwards.
func (c *Cursor) Release() {
	c.release()
	c.textSpan = nil
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
	// Open are the qualified names, as written, of the elements the
	// prologue leaves open, outermost first.
	Open [][]byte
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
	for i, raw := range seed.Open {
		mark := 0
		if i > 0 {
			mark = len(c.ns)
		}
		c.open = append(c.open, openTag{raw: raw, nsMark: mark})
		c.rooted = true
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
// name with Element.Attr semantics: the first attribute in no namespace
// wins, then the first namespaced one. xmlns declarations are never
// visible here. The lookup works on the raw attribute spans, so elements
// whose attributes are never queried pay nothing beyond value scanning.
func (c *Cursor) Attr(name string) (string, bool) {
	v, found := "", false
	for i := range c.pend {
		pa := &c.pend[i]
		if string(pa.local) != name {
			continue
		}
		if pa.prefix == nil || c.resolve(pa.prefix, false) == "" {
			return pa.value, true
		}
		if !found {
			v, found = pa.value, true
		}
	}
	return v, found
}

// Text materialises the current TokText token: entities expanded and line
// endings normalised, identical to the tree parser's text handling. The
// result is exactly sized: decoding a dirty span allocates only the
// returned string.
func (c *Cursor) Text() (string, error) {
	if c.textClean {
		return c.str(c.textSpan), nil
	}
	s, err := c.unescape(c.textSpan, c.textEntities)
	c.textRead = err == nil
	return s, err
}

// Next advances to the next token. Comments and processing instructions
// are skipped. Any error leaves the cursor unusable except for Release.
func (c *Cursor) Next() (Tok, error) {
	if c.selfClose {
		c.selfClose = false
		c.pop()
		return TokEnd, nil
	}
	if c.textSpan != nil && !c.textClean && c.textEntities && !c.textRead {
		if _, err := c.unescape(c.textSpan, true); err != nil {
			return TokEOF, err
		}
	}
	c.textSpan = nil
	for {
		if c.pos >= len(c.data) {
			return TokEOF, c.finish()
		}
		if c.data[c.pos] != '<' {
			return c.scanText()
		}
		c.pos++
		if c.pos >= len(c.data) {
			return TokEOF, c.errf("unexpected EOF")
		}
		switch c.data[c.pos] {
		case '?':
			// Processing instructions (the XML declaration included) are
			// skipped wherever they appear, as in the tree parser.
			if err := c.skipPI(); err != nil {
				return TokEOF, err
			}
		case '!':
			span, clean, cdata, err := c.bang()
			if err != nil {
				return TokEOF, err
			}
			if cdata {
				c.setText(span, clean, false)
				return TokText, nil
			}
		case '/':
			c.pos++
			if err := c.endTag(); err != nil {
				return TokEOF, err
			}
			return TokEnd, nil
		default:
			c.tagStart = c.pos - 1
			var err error
			if c.space, c.name, c.selfClose, err = c.startTag(); err != nil {
				return TokEOF, err
			}
			return TokStart, nil
		}
	}
}

// scanText scans one run of character data up to the next '<', with the
// same validation as parser.text (both run scanCharData).
func (c *Cursor) scanText() (Tok, error) {
	end, clean, msg := scanCharData(c.data, c.pos)
	if msg != "" {
		c.pos = end
		return TokEOF, c.errf("%s", msg)
	}
	c.setText(c.data[c.pos:end], clean, true)
	c.pos = end
	return TokText, nil
}

func (c *Cursor) setText(span []byte, clean, entities bool) {
	c.textSpan, c.textClean, c.textEntities, c.textRead = span, clean, entities, false
}

// Mark is a position Carve can re-read an element from: where its start
// tag begins, with the namespace and open-element depths in force there.
type Mark struct{ pos, ns, open int }

// Mark returns the position of the current TokStart element.
func (c *Cursor) Mark() Mark {
	top := len(c.open) - 1
	return Mark{pos: c.tagStart, ns: c.open[top].nsMark, open: top}
}

// Carve re-reads the element marked by m, which must still be open or have
// just closed, as a tree in arena's storage, and leaves the cursor just
// past its end tag, as if Next had returned the element's TokEnd. A caller
// that streams an element and only then finds it wants the tree (a child
// where it expected text) rewinds this way; the bytes between are lexed
// twice. The tree is the parser's own, so its text, attribute and
// namespace rules hold, and so do its errors, which leave the cursor
// unusable except for Release.
func (c *Cursor) Carve(m Mark, arena *Doc) (*Element, error) {
	p := arena.p
	p.data, p.pos, p.rooted = c.data, m.pos, m.open > 0
	p.ns = append(p.ns[:0], c.ns[:m.ns]...)
	p.open = append(p.open[:0], c.open[:m.open]...)
	p.root, p.stack, p.textBuf = nil, p.stack[:0], p.textBuf[:0]
	el, err := p.run(true)
	c.pos = p.pos
	p.lexer.release()
	c.ns, c.open = c.ns[:m.ns], c.open[:m.open]
	c.selfClose, c.textSpan = false, nil
	return el, err
}
