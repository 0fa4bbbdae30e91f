// streamread.go is the decode half of the streaming wire path. BodyReader
// reads a serialised envelope in one pass over an xmlutil.Cursor: it is
// the server's only request decoder and the client's only response
// decoder, and the gateway's routing sniff runs the same walk.
//
// The walk carries the first Header's entries wherever that Header sits,
// skips foreign Envelope children, and reads the first Body entry's
// parameters straight off the tokens into pooled Values. Only what a
// caller navigates as a tree is built as one: header entries (a SAML
// assertion), a response's Fault entry, and any parameter or return value
// outside the flat scalar/array shape are carved into a pooled arena, the
// values then read by ParseValue itself, so value semantics live in one
// place. Everything the walk does not read it still lexes, so it accepts
// exactly the documents the tree parser accepts and faults the way
// ParseEnvelopeBytes and ParseCall (for a request) or ParseResponse (for
// a response) together do. FuzzStreamVsTreeDispatch in the rpc package and
// FuzzResponseDecode in core hold it to those tree oracles.
package soap

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/xmlutil"
)

// BodyReader decodes one serialised envelope. Acquire it, Decode once,
// read Params and Envelope, and Release it exactly once when nothing reads
// them any more.
type BodyReader struct {
	cur *xmlutil.Cursor
	// arena holds the carved subtrees; acquired on the first carve.
	arena  *xmlutil.Doc
	env    Envelope
	params []Value
	// fault is a response's carved Fault entry, read instead of params.
	fault *xmlutil.Element
	mode  readMode
	// text joins the runs of a scalar split by comments or CDATA.
	text []byte
}

// readMode is how far a walk goes and what it builds.
type readMode uint8

const (
	// readRequest is the server's decode: the first Header's entries and
	// the call's parameters, carving what is not flat.
	readRequest readMode = iota
	// readResponse is the client's decode: the return values, carving
	// what is not flat, or a Fault entry carved whole. Headers are lexed
	// but not built, since a Response carries none.
	readResponse
	// readSniff stops at the first Body entry's start tag.
	readSniff
)

// maxPooledParams bounds the parameter capacity a pooled reader may keep,
// so one request with an absurd parameter list cannot pin that memory.
const maxPooledParams = 128

// maxPooledText bounds the text-joining buffer a pooled reader may keep.
const maxPooledText = 64 << 10

var bodyReaderPool = sync.Pool{New: func() interface{} { return new(BodyReader) }}

// AcquireBodyReader returns a pooled reader.
func AcquireBodyReader() *BodyReader {
	return bodyReaderPool.Get().(*BodyReader)
}

// Release zeroes the decoded request, so the pool pins none of it,
// recycles the carve arena, and returns the reader to the pool. No Value,
// header entry or element from the reader may be used afterwards.
func (r *BodyReader) Release() {
	clear(r.params)
	r.params = r.params[:0]
	if cap(r.params) > maxPooledParams {
		r.params = nil
	}
	r.env = Envelope{}
	r.fault = nil
	if cap(r.text) > maxPooledText {
		r.text = nil
	}
	if r.arena != nil {
		r.arena.Release()
		r.arena = nil
	}
	r.mode = readRequest
	bodyReaderPool.Put(r)
}

// Params returns the parameters of the decoded body entry, in wire order.
func (r *BodyReader) Params() []Value { return r.params }

// Envelope returns the decoded request envelope, which carries the first
// Header's entries only: the body entry is read out as Params.
func (r *BodyReader) Envelope() *Envelope { return &r.env }

// envelopePrologue is the byte-exact envelope opening our own encoder
// emits for every headerless message (Envelope.AppendTo assigns ns0 to the
// envelope namespace first). Messages from this portal's own clients —
// the overwhelmingly common case in portal-to-portal composition — match
// it with one memcmp, letting the walk skip tokenising the opening tags.
// Foreign peers that serialise differently just take the general scan.
var envelopePrologue = xmlutil.PrologueSeed{
	Text:     []byte(xmlDecl + `<ns0:Envelope xmlns:ns0="` + EnvelopeNS + `"><ns0:Body>`),
	Prefixes: [][]byte{[]byte("ns0")},
	URIs:     []string{EnvelopeNS},
	Open:     [][]byte{[]byte("ns0:Envelope"), []byte("ns0:Body")},
}

// Decode reads the serialised request envelope in data and returns the
// namespace and local name of its first Body entry, whose parameters
// Params then holds. Its errors are the tree path's: a syntax error
// anywhere in data comes first, then the structural faults of
// ParseEnvelopeBytes (root element, envelope namespace, missing Body) and
// ParseCall's empty body. The reader does not alias data once Decode
// returns.
func (r *BodyReader) Decode(data []byte) (space, name string, err error) {
	c := xmlutil.AcquireCursor(data)
	r.cur = c
	defer func() {
		r.cur = nil
		c.Release()
	}()
	var rootSpace, rootName string
	var envelope, inBody, sawBody, sawHeader, sawEntry bool
	if c.SkipPrologue(&envelopePrologue) {
		rootSpace, rootName = EnvelopeNS, "Envelope"
		envelope, inBody, sawBody = true, true, true
	}
	for {
		tok, err := c.Next()
		if err != nil {
			return "", "", fmt.Errorf("soap: %w", err)
		}
		switch tok {
		case xmlutil.TokEOF:
			if err := rootError(rootSpace, rootName); err != nil {
				return "", "", err
			}
			if !sawBody {
				return "", "", errNoBody
			}
			if !sawEntry {
				if r.mode == readResponse {
					return "", "", errEmptyResponse
				}
				return "", "", emptyBodyFault()
			}
			return space, name, nil
		case xmlutil.TokEnd:
			if c.Depth() == 1 {
				inBody = false
			}
		case xmlutil.TokStart:
			switch c.Depth() {
			case 1:
				rootSpace, rootName = c.Space(), c.Name()
				envelope = rootSpace == EnvelopeNS && rootName == "Envelope"
			case 2:
				if !envelope || c.Space() != EnvelopeNS {
					break
				}
				switch {
				case c.Name() == "Body" && !sawBody:
					sawBody, inBody = true, true
				case c.Name() == "Header" && !sawHeader && r.mode == readRequest:
					sawHeader = true
					hdr, err := r.carve(c.Mark())
					if err != nil {
						return "", "", err
					}
					r.env.Header = hdr.Children
				}
			case 3:
				if !inBody || sawEntry {
					break
				}
				sawEntry = true
				space, name = c.Space(), c.Name()
				switch {
				case r.mode == readSniff:
					return space, name, nil
				case r.mode == readResponse && space == EnvelopeNS && name == "Fault":
					if r.fault, err = r.carve(c.Mark()); err != nil {
						return "", "", err
					}
				default:
					if err := r.readParams(); err != nil {
						return "", "", err
					}
				}
			}
		}
	}
}

// readParams reads the parameters of the body entry the cursor is on,
// through the entry's end tag. Character data between them is lexed but
// never read, as ParseCall never reads it.
func (r *BodyReader) readParams() error {
	for {
		tok, err := r.cur.Next()
		if err != nil {
			return fmt.Errorf("soap: %w", err)
		}
		switch tok {
		case xmlutil.TokEnd:
			return nil
		case xmlutil.TokStart:
			r.params = append(r.params, Value{})
			if err := r.readValue(&r.params[len(r.params)-1]); err != nil {
				return err
			}
		}
	}
}

// readValue reads the element the cursor is on into *v, as ParseValue
// reads its tree: a scalar is its text runs joined, a soapenc:Array its
// children read the same way. An element with a child anywhere else (a
// literal-XML payload, an untyped item array, a typed element with
// children) is carved and handed to ParseValue.
func (r *BodyReader) readValue(v *Value) error {
	c := r.cur
	m := c.Mark()
	typeAttr, _ := c.Attr("type")
	*v = Value{Name: c.Name()}
	array := typeAttr == "soapenc:Array"
	if array {
		v.Type = "Array"
	} else if v.Type = strings.TrimPrefix(typeAttr, "xsd:"); v.Type == "" {
		v.Type = "string"
	}
	runs := 0 // text runs; more than one are joined in r.text
	for {
		tok, err := c.Next()
		if err != nil {
			return fmt.Errorf("soap: %w", err)
		}
		switch {
		case tok == xmlutil.TokEnd:
			if runs > 1 {
				v.Text = string(r.text)
			}
			return nil
		case tok == xmlutil.TokText && !array:
			s, err := c.Text()
			if err != nil {
				return fmt.Errorf("soap: %w", err)
			}
			switch runs++; runs {
			case 1:
				v.Text = s
			case 2:
				r.text = append(append(r.text[:0], v.Text...), s...)
			default:
				r.text = append(r.text, s...)
			}
		case tok == xmlutil.TokStart && array:
			v.Items = append(v.Items, Value{})
			if err := r.readValue(&v.Items[len(v.Items)-1]); err != nil {
				return err
			}
		case tok == xmlutil.TokStart:
			el, err := r.carve(m)
			if err != nil {
				return err
			}
			*v = ParseValue(el)
			return nil
		}
	}
}

// carve re-reads the element at m as a tree in the reader's arena.
func (r *BodyReader) carve(m xmlutil.Mark) (*xmlutil.Element, error) {
	if r.arena == nil {
		r.arena = xmlutil.AcquireArena()
	}
	el, err := r.cur.Carve(m, r.arena)
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	return el, nil
}

// DecodeResponse decodes a serialised RPC response envelope in one pass
// and returns what ParseEnvelopeBytes and ParseResponse together return:
// the response, or a Fault entry as both a Response with Fault set and
// the error (of type *Fault), or the error of a malformed envelope.
// XML-valued returns sit in a pooled arena, so release must be called once
// the caller is done with the response, and no *xmlutil.Element reachable
// from it may be used afterwards. When nothing was carved release is a
// no-op, and a second call always is. Returns is the caller's own slice
// and every string stays valid forever. A fault's detail is cloned out of
// the arena, so a returned *Fault is safe to keep.
func DecodeResponse(data []byte) (resp *Response, release func(), err error) {
	r := AcquireBodyReader()
	defer r.Release()
	r.mode = readResponse
	release = noRelease
	space, name, err := r.Decode(data)
	switch {
	case err != nil:
	case r.fault != nil:
		f := ParseFault(r.fault)
		detail := make([]*xmlutil.Element, len(f.Detail))
		for i, d := range f.Detail {
			detail[i] = d.Clone()
		}
		f.Detail = detail
		resp, err = &Response{Fault: f}, f
	default:
		resp = &Response{ServiceNS: space, Method: strings.TrimSuffix(name, "Response"),
			Returns: append([]Value(nil), r.params...)}
		if r.arena != nil {
			// The arena leaves with the response; the reader is recycled.
			release, r.arena = r.arena.Release, nil
		}
	}
	return resp, release, err
}

func noRelease() {}

// SniffBody reports the namespace and local name of the primary body entry
// of serialised envelope bytes without building an element tree. It reads
// only as far as that entry's start tag, so the bytes after it go
// unchecked; a document that breaks off or errs before it yields ok=false.
// The gateway uses it to identify the operation a request targets — and
// whether a relayed response is a fault — from raw bytes alone.
func SniffBody(data []byte) (space, name string, ok bool) {
	r := AcquireBodyReader()
	r.mode = readSniff
	space, name, err := r.Decode(data)
	r.Release()
	return space, name, err == nil
}

// IsFaultBytes reports whether serialised envelope bytes carry a Fault as
// their primary body entry — the raw-bytes counterpart of the SOAP 1.1
// rule that maps fault responses onto HTTP 500.
func IsFaultBytes(data []byte) bool {
	space, name, ok := SniffBody(data)
	return ok && space == EnvelopeNS && name == "Fault"
}
