// cursor.go implements a pull-token reader over the tree parser's XML
// subset minus the constructs the streaming consumers deliberately refuse
// (comments, CDATA sections, DTDs: anything starting "<!"). It is the
// foundation of the treeless decode fast path: the soap package walks
// tokens straight off the wire bytes and hands scalar parameter text to
// per-operation codecs without ever materialising an *Element tree.
//
// Contract with the tree parser: the cursor never accepts input the tree
// parser rejects, and decodes identical strings for everything it accepts.
// That holds by construction: names, namespaces, processing instructions,
// tags, attribute values, end-tag matching and the document rules come from
// the lexer both embed (lexer.go), character data from the same scan and
// unescape kernels, and errors carry the parser's text. Only the string
// policy differs (memoStrings here, interning there). On top of that the
// cursor refuses "<!", which routes the document to the tree path, the
// semantic authority; FuzzCursorVsTree checks the whole contract.
package xmlutil

import (
	"bytes"
	"errors"
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
	// TokText is one run of character data; Text/TextIsSpace read it.
	TokText
	// TokEOF is the end of the document with all elements closed.
	TokEOF
)

// errCursorUnsupported marks a well-formed-so-far construct outside the
// cursor's streaming subset (comments, CDATA, DTDs). Callers treat it the
// same as a parse error — fall back to the tree parser — but the distinct
// value keeps diagnostics honest: the input was not necessarily malformed.
var errCursorUnsupported = errors.New("xmlutil: cursor: construct outside the streaming subset")

// Cursor is a pooled pull-token reader. Acquire with AcquireCursor, walk
// with Next, and Release when done (whether or not parsing succeeded).
// Strings returned by Name, Space, Attr lookups, and Text never alias the
// input and stay valid after Release.
type Cursor struct {
	// lexer's pend holds the current start tag's non-xmlns attributes.
	// Lookups are lazy: Attr matches against their raw name spans on
	// demand, so tags whose attributes nobody reads never pay for name
	// interning or namespace resolution.
	lexer

	// Current TokStart state.
	space, name string
	selfClose   bool

	// Current TokText state: the raw span (aliasing data), whether it
	// needs unescaping, and whether Text has decoded it. Next decodes a
	// span that needs it and that nobody read, since the tree parser
	// checks the entities of all character data.
	textSpan  []byte
	textClean bool
	textRead  bool

	memo memoStrings
}

// memoStrings is the cursor's string policy: a small direct-mapped cache
// over recently seen clean byte spans (names, attribute values, short leaf
// text), surviving pool cycles. RPC traffic re-sends the same vocabulary
// every request — "xsd:string", the xsi namespace URI, parameter names,
// scheduler names — and the cache turns those into collision-checked
// string reuse without touching the locked global intern table. A full
// comparison guards every hit, so collisions only cost the miss path: one
// string allocation and a cache overwrite.
type memoStrings [32]string

func (m *memoStrings) slot(span []byte) *string {
	return &m[(uint(len(span))*131+uint(span[0])*31+uint(span[len(span)-1]))%uint(len(m))]
}

// name memoises bounded vocabulary, element names and namespace prefixes,
// through the global intern table: only these may feed it. High-cardinality
// spans (leaf text and attribute values: registry keys, user data) go
// through value instead, or the append-only intern table fills with
// one-shot strings — evicting nothing, wasting the cap, and paying a
// full-table copy per insert until full.
func (m *memoStrings) name(span []byte) string {
	if len(span) == 0 {
		return ""
	}
	if len(span) > maxInternLen {
		return string(span)
	}
	e := m.slot(span)
	if *e == string(span) { // no alloc: compiler-recognised compare
		return *e
	}
	*e = intern(span) // shared instance even when slots collide
	return *e
}

// value is name without the global intern table: a miss allocates and
// caches per cursor only. For spans whose value space is unbounded, the
// recurring ones ("xsd:string", redeclared namespace URIs) still turn into
// reuse via the memo — cursors are pooled, so the memo warms once per
// cursor instance — while unique ones (freshly minted uuid keys in publish
// responses) cost exactly their own allocation instead of a global table
// insert.
func (m *memoStrings) value(span []byte) string {
	if len(span) == 0 {
		return ""
	}
	if len(span) > maxInternLen {
		return string(span)
	}
	e := m.slot(span)
	if *e != string(span) {
		*e = string(span)
	}
	return *e
}

// known probes the memo with a raw, not-yet-validated span. Every memo
// entrant was validated by its producer (a name, a clean attribute value,
// clean character data), so a hit proves the span clean and valid without
// rescanning it — the basis of the attribute-value fast path.
func (m *memoStrings) known(span []byte) (string, bool) {
	if len(span) == 0 || len(span) > maxInternLen {
		return "", false
	}
	if e := m.slot(span); *e == string(span) {
		return *e, true
	}
	return "", false
}

var cursorPool = sync.Pool{New: func() interface{} {
	c := new(Cursor)
	c.str = &c.memo
	return c
}}

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
		return c.memo.value(c.textSpan), nil
	}
	s, err := c.unescape(c.textSpan, true)
	c.textRead = err == nil
	return s, err
}

// Next advances to the next token. Any error — malformed XML or a
// construct outside the streaming subset — leaves the cursor unusable
// except for Release.
func (c *Cursor) Next() (Tok, error) {
	if c.selfClose {
		c.selfClose = false
		c.pop()
		return TokEnd, nil
	}
	if c.textSpan != nil && !c.textClean && !c.textRead {
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
			// Comments and CDATA are tree-parser territory; DTDs are
			// rejected there too, so either way the fast path stops here.
			return TokEOF, errCursorUnsupported
		case '/':
			c.pos++
			if err := c.endTag(); err != nil {
				return TokEOF, err
			}
			return TokEnd, nil
		default:
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
	c.textSpan = c.data[c.pos:end]
	c.textClean = clean
	c.textRead = false
	c.pos = end
	return TokText, nil
}
