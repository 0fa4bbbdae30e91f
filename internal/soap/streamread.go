// streamread.go is the decode half of the streaming hot path: a reader
// that walks envelope tokens straight off the wire bytes — Envelope, Body,
// the operation element, and each RPC parameter — without constructing an
// element tree, feeding per-operation codecs (rpc kernel) on the server
// and the pooled client's response parse.
//
// The reader is deliberately narrower than the tree parser. It handles
// exactly the shapes the portal dialects put on the wire: a headerless
// envelope whose first Body entry is the operation element, parameters
// that are typed scalars or flat arrays of scalar items. Anything else —
// Header entries middleware may inspect, literal-XML parameters, Fault
// bodies, comments/CDATA, foreign envelope layouts, or malformed input —
// makes it report "not handled", and the caller re-runs the request
// through the pooled tree path, which stays the semantic authority
// (including exact fault texts). For everything the reader does handle it
// must produce byte-identical Values to ParseValue over the parsed tree;
// FuzzStreamVsTreeDispatch in the rpc package enforces that differentially.
package soap

import (
	"strings"
	"sync"

	"repro/internal/xmlutil"
)

// BodyReader streams the primary body entry of a serialised envelope. The
// usage protocol is Begin, then ReadValueInto until done, then Finish; any
// step reporting !ok means the document is outside the streaming subset
// and the caller must fall back to the tree path. Release must always be
// called, exactly once.
type BodyReader struct {
	cur *xmlutil.Cursor
}

var bodyReaderPool = sync.Pool{New: func() interface{} { return new(BodyReader) }}

// AcquireBodyReader returns a pooled reader over the serialised envelope
// bytes. The reader aliases data until Release; strings it returns do not.
func AcquireBodyReader(data []byte) *BodyReader {
	r := bodyReaderPool.Get().(*BodyReader)
	r.cur = xmlutil.AcquireCursor(data)
	return r
}

// Release recycles the reader and its cursor.
func (r *BodyReader) Release() {
	r.cur.Release()
	r.cur = nil
	bodyReaderPool.Put(r)
}

// envelopePrologue is the byte-exact envelope opening our own encoder
// emits for every headerless message (Envelope.AppendTo assigns ns0 to the
// envelope namespace first). Messages from this portal's own clients —
// the overwhelmingly common case in portal-to-portal composition — match
// it with one memcmp, letting Begin skip tokenising the opening tags.
// Foreign peers that serialise differently just take the general scan.
var envelopePrologue = xmlutil.PrologueSeed{
	Text:     []byte(xmlDecl + `<ns0:Envelope xmlns:ns0="` + EnvelopeNS + `"><ns0:Body>`),
	Prefixes: [][]byte{[]byte("ns0")},
	URIs:     []string{EnvelopeNS},
	Open:     [][]byte{[]byte("ns0:Envelope"), []byte("ns0:Body")},
}

// Begin matches the envelope prolog — Envelope, then Body as its first
// child element, then the first body entry — and returns that entry's
// resolved namespace and local name, leaving the reader positioned on its
// content. Headers, foreign roots, and empty bodies all report !ok.
func (r *BodyReader) Begin() (space, name string, ok bool) {
	if r.cur.SkipPrologue(&envelopePrologue) {
		if !r.nextElem(2) {
			return "", "", false
		}
		return r.cur.Space(), r.cur.Name(), true
	}
	// Prolog: whitespace, the XML declaration (skipped inside the cursor),
	// and stray character data outside the root, which the tree parser
	// validates and discards.
	if !r.nextElem(0) {
		return "", "", false
	}
	if r.cur.Space() != EnvelopeNS || r.cur.Name() != "Envelope" {
		return "", "", false
	}
	// First child element must be Body: a Header (or any foreign entry)
	// routes to the tree path, which middleware-visible headers require.
	if !r.nextElem(1) {
		return "", "", false
	}
	if r.cur.Space() != EnvelopeNS || r.cur.Name() != "Body" {
		return "", "", false
	}
	// The primary body entry (operation element on requests, wrapper
	// element on responses). An empty Body is the tree path's fault.
	if !r.nextElem(2) {
		return "", "", false
	}
	return r.cur.Space(), r.cur.Name(), true
}

// nextElem advances to the next element start at the given depth,
// discarding character data exactly as the tree path does for container
// elements (ParseCall and envelopeFromRoot never read it). Anything else
// — the container closing, EOF, an error — reports false.
func (r *BodyReader) nextElem(depth int) bool {
	for {
		tok, err := r.cur.Next()
		if err != nil {
			return false
		}
		switch tok {
		case xmlutil.TokStart:
			return r.cur.Depth() == depth+1
		case xmlutil.TokText:
			// Validated and ignored: text in Envelope/Body/outside the
			// root never reaches tree-path consumers either.
			continue
		default:
			return false
		}
	}
}

// ReadValueInto reads the next parameter element of the primary body
// entry into *v, reproducing ParseValue's result for the streaming subset:
// typed scalars, soapenc:Array containers of scalar items, and untyped
// text values. done reports the entry's end tag; !ok means fall back
// (literal-XML payloads, nested arrays, mixed content, malformed input).
// Filling in place lets the rpc codecs decode straight into their
// pre-sized raw slice. On done or !ok, *v is meaningless.
func (r *BodyReader) ReadValueInto(v *Value) (done, ok bool) {
	cur := r.cur
	for {
		tok, err := cur.Next()
		if err != nil {
			return false, false
		}
		switch tok {
		case xmlutil.TokEnd:
			return true, true
		case xmlutil.TokText:
			// Text between parameters lands in the operation element's
			// Text field on the tree path and is never read; discard.
			continue
		case xmlutil.TokStart:
			return r.readParam(v)
		default:
			return false, false
		}
	}
}

// readParam consumes one parameter element (the cursor is on its start
// tag) and fills its Value.
func (r *BodyReader) readParam(v *Value) (done, ok bool) {
	cur := r.cur
	v.Name = cur.Name()
	typeAttr, _ := cur.Attr("type")
	if typeAttr == "soapenc:Array" {
		v.Type = "Array"
		items, ok := r.readItems()
		if !ok {
			return false, false
		}
		v.Items = items
		v.Text = ""
		return false, true
	}
	// Scalar: at most one text token, then the end tag. A child element
	// here is either a literal-XML payload (untyped) or a shape ParseValue
	// would flatten oddly (typed with children) — tree path either way.
	text, ok := r.readScalarContent()
	if !ok {
		return false, false
	}
	v.Type = strings.TrimPrefix(typeAttr, "xsd:")
	if v.Type == "" {
		v.Type = "string"
	}
	v.Text = text
	v.Items = nil
	return false, true
}

// readScalarContent consumes the content of a scalar element up to its end
// tag. Leaf text is preserved verbatim (no trimming), matching the tree
// parser's leaf-text rule.
func (r *BodyReader) readScalarContent() (string, bool) {
	cur := r.cur
	text := ""
	sawText := false
	for {
		tok, err := cur.Next()
		if err != nil {
			return "", false
		}
		switch tok {
		case xmlutil.TokEnd:
			return text, true
		case xmlutil.TokText:
			if sawText {
				// Two text runs with nothing between them cannot happen
				// without a construct the cursor already rejects; be safe.
				return "", false
			}
			s, terr := cur.Text()
			if terr != nil {
				return "", false
			}
			text = s
			sawText = true
		default:
			return "", false
		}
	}
}

// readItems consumes the items of a soapenc:Array container. The tree
// path ignores container text entirely for arrays, but only after
// trimming proves it whitespace; non-space text falls back rather than
// replicating that edge. Nested containers (items with children) fall
// back too.
func (r *BodyReader) readItems() ([]Value, bool) {
	cur := r.cur
	var items []Value
	for {
		tok, err := cur.Next()
		if err != nil {
			return nil, false
		}
		switch tok {
		case xmlutil.TokEnd:
			return items, true
		case xmlutil.TokText:
			if !cur.TextIsSpace() {
				return nil, false
			}
		case xmlutil.TokStart:
			name := cur.Name()
			typeAttr, _ := cur.Attr("type")
			if typeAttr == "soapenc:Array" {
				return nil, false
			}
			text, ok := r.readScalarContent()
			if !ok {
				return nil, false
			}
			it := Value{Name: name, Type: strings.TrimPrefix(typeAttr, "xsd:"), Text: text}
			if it.Type == "" {
				it.Type = "string"
			}
			items = append(items, it)
		default:
			return nil, false
		}
	}
}

// Finish verifies the envelope tail after the primary body entry closed:
// Body and Envelope must close with no further entries (a trailing Header
// or extra body entry routes to the tree path, which knows what to do
// with them), then only discardable character data until EOF.
func (r *BodyReader) Finish() bool {
	for {
		tok, err := r.cur.Next()
		if err != nil {
			return false
		}
		switch tok {
		case xmlutil.TokEOF:
			return true
		case xmlutil.TokEnd, xmlutil.TokText:
			continue
		default:
			return false
		}
	}
}

// ParseResponseStream decodes an RPC response envelope through the
// streaming reader: no element tree, no arena. It handles the common
// shape — headerless envelope, scalar/array return values — and reports
// !ok for everything else (faults included, so error relay always flows
// through the tree path's exact semantics). The result is identical to
// ParseResponse over the parsed envelope.
func ParseResponseStream(data []byte) (*Response, bool) {
	r := AcquireBodyReader(data)
	defer r.Release()
	space, name, ok := r.Begin()
	if !ok {
		return nil, false
	}
	if space == EnvelopeNS && name == "Fault" {
		return nil, false
	}
	resp := &Response{ServiceNS: space, Method: strings.TrimSuffix(name, "Response")}
	resp.Returns = make([]Value, 0, 4)
	for {
		if len(resp.Returns) == cap(resp.Returns) {
			resp.Returns = append(resp.Returns, Value{})
		} else {
			resp.Returns = resp.Returns[:len(resp.Returns)+1]
		}
		done, ok := r.ReadValueInto(&resp.Returns[len(resp.Returns)-1])
		if !ok {
			return nil, false
		}
		if done {
			resp.Returns = resp.Returns[:len(resp.Returns)-1]
			break
		}
	}
	if !r.Finish() {
		return nil, false
	}
	return resp, true
}

// SniffBody reports the namespace and local name of the primary body entry
// of serialised envelope bytes without building an element tree, falling
// back to a full parse for envelopes outside the streaming subset (ones
// carrying headers, say). Unparseable bytes yield ok=false. The gateway
// uses it to identify the operation a request targets — and whether a
// relayed response is a fault — from raw bytes alone.
func SniffBody(data []byte) (space, name string, ok bool) {
	r := AcquireBodyReader(data)
	space, name, ok = r.Begin()
	r.Release()
	if ok {
		return space, name, true
	}
	env, err := ParseEnvelopeBytes(data)
	if err != nil || len(env.Body) == 0 {
		return "", "", false
	}
	return env.Body[0].Space, env.Body[0].Name, true
}

// IsFaultBytes reports whether serialised envelope bytes carry a Fault as
// their primary body entry — the raw-bytes counterpart of the SOAP 1.1
// rule that maps fault responses onto HTTP 500.
func IsFaultBytes(data []byte) bool {
	space, name, ok := SniffBody(data)
	return ok && space == EnvelopeNS && name == "Fault"
}
