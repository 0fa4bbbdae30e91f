// Package soap implements the SOAP 1.1 messaging layer the portal services
// communicate with: envelope construction and parsing, header entries, RPC
// style call encoding, SOAP faults, and the portal-standard implementation
// error relay described in Section 3 of the paper ("the standard set of
// portal services that we are building must define and relay a common set of
// error messages" for failures that are not SOAP faults, such as a file
// transfer failing because the disk was full).
//
// Envelopes are hand-rolled, as the paper's Python services hand-assembled
// their payloads. Call.WireEnvelope and Response.WireEnvelope stream each
// message through an xmlutil.Writer; BodyReader and DecodeResponse decode
// on the xmlutil cursor, and ParseEnvelopeBytes reads a tree.
package soap

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/xmlutil"
)

// Namespace URIs for SOAP 1.1 messaging.
const (
	EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"
	EncodingNS = "http://schemas.xmlsoap.org/soap/encoding/"
	XSINS      = "http://www.w3.org/2001/XMLSchema-instance"
	XSDNS      = "http://www.w3.org/2001/XMLSchema"
)

// Fault codes defined by SOAP 1.1.
const (
	FaultVersionMismatch = "VersionMismatch"
	FaultMustUnderstand  = "MustUnderstand"
	FaultClient          = "Client"
	FaultServer          = "Server"
)

// PortalErrorNS is the namespace of the portal-standard error detail entry
// that relays implementation errors (as opposed to messaging faults).
const PortalErrorNS = "urn:gce:portal-error"

// Portal-standard implementation error codes, the "common set of error
// messages" Section 3 calls for. These cover the failure classes the basic
// portal services share.
const (
	ErrCodeNone           = ""
	ErrCodeAuthFailed     = "AuthenticationFailed"
	ErrCodeAccessDenied   = "AccessDenied"
	ErrCodeNoSuchResource = "NoSuchResource"
	ErrCodeNoSuchMethod   = "NoSuchMethod"
	ErrCodeBadRequest     = "BadRequest"
	ErrCodeResourceFull   = "ResourceFull"
	ErrCodeJobFailed      = "JobFailed"
	ErrCodeTimeout        = "Timeout"
	ErrCodeInternal       = "InternalError"
	ErrCodeUnavailable    = "ServiceUnavailable"
	ErrCodeServerBusy     = "ServerBusy"
)

// Envelope is a parsed or under-construction SOAP 1.1 envelope.
type Envelope struct {
	// Header entries, may be empty.
	Header []*xmlutil.Element
	// Body entries. For an RPC request the first entry is the call element;
	// for a response it is the <methodName>Response element; for a fault it
	// is the Fault element.
	Body []*xmlutil.Element

	// stream, when non-nil, emits the primary body entry directly through
	// a streaming Writer instead of from a Body tree — the tree-free hot
	// path Call.WireEnvelope and Response.WireEnvelope produce. Body
	// starts nil on such envelopes (entries appended later with AddBody
	// are serialised after the streamed entry); consumers that need the
	// full tree re-parse the serialised form, as every transport already
	// does for wire fidelity. An interface rather than a closure so
	// assigning the Call/Response itself costs nothing.
	stream bodyStreamer

	// raw, when non-nil, is an already-serialised envelope relayed
	// verbatim by AppendTo (no XML declaration is prepended — the bytes
	// carry their own). The gateway's forwarding path uses it to push
	// request bytes through a transport without a parse/re-render round
	// trip. Such an envelope is opaque: Header/Body/stream are ignored.
	raw []byte
}

// RawEnvelope wraps already-serialised envelope bytes so they can be
// re-sent through any transport byte-identically. The caller must keep
// data unmodified until the round trip completes.
func RawEnvelope(data []byte) *Envelope {
	return &Envelope{raw: data}
}

// RawEnvelopeInto is RawEnvelope initialising a caller-provided Envelope
// in place, for dispatch paths that embed the envelope in one
// request-scoped allocation.
func RawEnvelopeInto(env *Envelope, data []byte) {
	*env = Envelope{raw: data}
}

// bodyStreamer emits the primary body entry of a streamed envelope
// through the Writer. *Call and *Response implement it, so WireEnvelope
// stores the message itself instead of allocating a closure over it.
type bodyStreamer interface {
	streamBody(w *xmlutil.Writer)
}

// NewEnvelope returns an empty envelope.
func NewEnvelope() *Envelope {
	return &Envelope{}
}

// AddHeader appends a header entry.
func (e *Envelope) AddHeader(h *xmlutil.Element) *Envelope {
	e.Header = append(e.Header, h)
	return e
}

// AddBody appends a body entry.
func (e *Envelope) AddBody(b *xmlutil.Element) *Envelope {
	e.Body = append(e.Body, b)
	return e
}

// HeaderNamed returns the first header entry with the given namespace URI
// and local name, or nil. An entry of the same local name in another
// namespace is a different header.
func (e *Envelope) HeaderNamed(space, name string) *xmlutil.Element {
	for _, h := range e.Header {
		if h.Name == name && h.Space == space {
			return h
		}
	}
	return nil
}

// xmlDecl is the declaration prefixed to every serialised envelope.
const xmlDecl = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// Render serialises the envelope with an XML declaration, ready to be sent
// as an HTTP request or response body.
func (e *Envelope) Render() string {
	b := xmlutil.GetBuffer()
	e.AppendTo(b)
	s := b.String()
	xmlutil.PutBuffer(b)
	return s
}

// AppendTo serialises the envelope (XML declaration included) into b. The
// transport hot paths use this with pooled buffers to avoid the string
// round trip Render pays. Every envelope is written through the Writer:
// the Header entries, then the streamed body entry of an envelope built by
// Call.WireEnvelope or Response.WireEnvelope, then every Body tree.
func (e *Envelope) AppendTo(b *bytes.Buffer) {
	if e.raw != nil {
		b.Write(e.raw)
		return
	}
	b.WriteString(xmlDecl)
	w := xmlutil.AcquireWriter(b)
	defer w.Release()
	w.Start(EnvelopeNS, "Envelope")
	if len(e.Header) > 0 {
		w.Start(EnvelopeNS, "Header")
		for _, h := range e.Header {
			w.Element(h)
		}
		w.End()
	}
	w.Start(EnvelopeNS, "Body")
	if e.stream != nil {
		e.stream.streamBody(w)
	}
	// Entries added with AddBody after WireEnvelope construction (e.g. by
	// a client interceptor) ride along after the streamed entry, so the
	// mutation contract of interceptors keeps holding on the hot path.
	for _, be := range e.Body {
		w.Element(be)
	}
	w.End()
	w.End()
}

// ParseEnvelopeBytes parses a SOAP 1.1 envelope from its serialised
// form. The returned envelope does not alias data.
func ParseEnvelopeBytes(data []byte) (*Envelope, error) {
	root, err := xmlutil.ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	return envelopeFromRoot(root)
}

func envelopeFromRoot(root *xmlutil.Element) (*Envelope, error) {
	if err := rootError(root.Space, root.Name); err != nil {
		return nil, err
	}
	env := NewEnvelope()
	if hdr := root.ChildNS(EnvelopeNS, "Header"); hdr != nil {
		env.Header = hdr.Children
	}
	body := root.ChildNS(EnvelopeNS, "Body")
	if body == nil {
		return nil, errNoBody
	}
	env.Body = body.Children
	return env, nil
}

// rootError is the fault of a document whose root is not a SOAP 1.1
// Envelope, or nil.
func rootError(space, name string) error {
	if name != "Envelope" {
		return fmt.Errorf("soap: root element %q is not Envelope", name)
	}
	if space != EnvelopeNS {
		return &Fault{Code: FaultVersionMismatch, String: fmt.Sprintf("soap: unsupported envelope namespace %q", space)}
	}
	return nil
}

var errNoBody = errors.New("soap: envelope has no Body")

// errEmptyResponse is the error of a response whose Body has no entry.
var errEmptyResponse = errors.New("soap: empty response body")

// emptyBodyFault is the fault of a request whose Body has no entry.
func emptyBodyFault() error { return &Fault{Code: FaultClient, String: "empty request body"} }

// Fault is a SOAP 1.1 Fault. It doubles as a Go error so transport and
// dispatch layers can return it directly.
type Fault struct {
	// Code is the fault code local part (Client, Server, ...).
	Code string
	// String is the human-readable fault string.
	String string
	// Actor optionally identifies the node that faulted.
	Actor string
	// Detail carries application detail entries. The portal error relay
	// lives here as a PortalErrorNS entry.
	Detail []*xmlutil.Element
	// RetryAfter, when positive, advises the caller how long to wait
	// before retrying (load shedding and drain rejections set it). It is
	// transport metadata, not part of the fault's wire body: the HTTP
	// binding relays it as a Retry-After header.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// AsFault unwraps err into a *Fault if it is one or wraps one; otherwise
// nil. Dispatch layers use it instead of a direct type assertion so
// wrapped faults still render as proper fault envelopes.
func AsFault(err error) *Fault {
	var f *Fault
	if errors.As(err, &f) {
		return f
	}
	return nil
}

// PortalError extracts the portal-standard implementation error from the
// fault detail, or nil when the fault carries none.
func (f *Fault) PortalError() *PortalError {
	for _, d := range f.Detail {
		if d.Space == PortalErrorNS && d.Name == "PortalError" {
			return &PortalError{
				Code:    d.ChildText("code"),
				Message: d.ChildText("message"),
				Service: d.ChildText("service"),
			}
		}
	}
	return nil
}

// write streams the fault as a Body entry: faultcode, faultstring, the
// faultactor when set, and the detail entries when there are any.
func (f *Fault) write(w *xmlutil.Writer) {
	w.Start(EnvelopeNS, "Fault")
	w.Start("", "faultcode")
	w.Text("soap:" + f.Code)
	w.End()
	w.Start("", "faultstring")
	w.Text(f.String)
	w.End()
	if f.Actor != "" {
		w.Start("", "faultactor")
		w.Text(f.Actor)
		w.End()
	}
	if len(f.Detail) > 0 {
		w.Start("", "detail")
		for _, d := range f.Detail {
			w.Element(d)
		}
		w.End()
	}
	w.End()
}

// ParseFault converts a Fault body entry back into a Fault value.
func ParseFault(el *xmlutil.Element) *Fault {
	f := &Fault{
		Code:   localPart(el.ChildText("faultcode")),
		String: el.ChildText("faultstring"),
		Actor:  el.ChildText("faultactor"),
	}
	if det := el.Child("detail"); det != nil {
		f.Detail = det.Children
	}
	return f
}

func localPart(qname string) string {
	if i := strings.LastIndex(qname, ":"); i >= 0 {
		return qname[i+1:]
	}
	return qname
}

// PortalError is the portal-standard implementation error: a failure in the
// service implementation rather than in SOAP messaging (Section 3's example:
// "the file didn't get transferred because the disk was full"). It is
// relayed inside the Fault detail so every portal client can decode every
// portal service's failures uniformly.
type PortalError struct {
	// Code is one of the ErrCode constants.
	Code string
	// Message is the human-readable explanation.
	Message string
	// Service names the service that raised the error.
	Service string
}

// Error implements the error interface.
func (p *PortalError) Error() string {
	if p.Service != "" {
		return fmt.Sprintf("%s: %s: %s", p.Service, p.Code, p.Message)
	}
	return fmt.Sprintf("%s: %s", p.Code, p.Message)
}

// Element renders the portal error as a fault detail entry.
func (p *PortalError) Element() *xmlutil.Element {
	el := xmlutil.NewNS(PortalErrorNS, "PortalError")
	el.AddText("code", p.Code)
	el.AddText("message", p.Message)
	if p.Service != "" {
		el.AddText("service", p.Service)
	}
	return el
}

// Fault wraps the portal error into a Server fault carrying it as detail.
func (p *PortalError) Fault() *Fault {
	return &Fault{Code: FaultServer, String: p.Message, Detail: []*xmlutil.Element{p.Element()}}
}

// NewPortalError constructs a PortalError.
func NewPortalError(service, code, format string, args ...interface{}) *PortalError {
	return &PortalError{Code: code, Service: service, Message: fmt.Sprintf(format, args...)}
}

// AsPortalError unwraps err into a *PortalError if it is one or carries one
// (directly or inside a Fault); otherwise it returns nil.
func AsPortalError(err error) *PortalError {
	var pe *PortalError
	if errors.As(err, &pe) {
		return pe
	}
	var f *Fault
	if errors.As(err, &f) {
		return f.PortalError()
	}
	return nil
}

// --- RPC encoding ---------------------------------------------------------

// Value is a SOAP RPC parameter or return value: a name, an XSD type tag,
// and either scalar text, an array of values, or a literal XML payload,
// held as a tree or written on demand.
type Value struct {
	// Name is the accessor (parameter) name.
	Name string
	// Type is the xsd type local name: "string", "int", "boolean", "double",
	// "Array" for arrays, or "" for untyped literal XML payloads.
	Type string
	// Text is the scalar value when Type is a scalar type.
	Text string
	// Items holds array members when Type is "Array".
	Items []Value
	// XML holds a literal child tree when the parameter carries an XML
	// document (the paper's services pass XML job descriptions and multi-
	// command requests as single parameters).
	XML *xmlutil.Element
	// WriteXML, when XML is nil, writes a literal XML payload, one root
	// element, as Writer events: the form for an answer rendered straight
	// from records, with no tree in between. It runs after the handler
	// that returned it has returned (the kernel encodes returns after the
	// handler, and a response cache encodes its entry), so it must read
	// only data that no later call changes.
	WriteXML func(w *xmlutil.Writer)
}

// Str builds a string-typed value.
func Str(name, v string) Value { return Value{Name: name, Type: "string", Text: v} }

// Int builds an int-typed value.
func Int(name string, v int) Value { return Value{Name: name, Type: "int", Text: strconv.Itoa(v)} }

// Bool builds a boolean-typed value.
func Bool(name string, v bool) Value {
	return Value{Name: name, Type: "boolean", Text: strconv.FormatBool(v)}
}

// StrArray builds a string array value.
func StrArray(name string, items []string) Value {
	v := Value{Name: name, Type: "Array"}
	for _, s := range items {
		v.Items = append(v.Items, Value{Name: "item", Type: "string", Text: s})
	}
	return v
}

// XMLDoc builds a value carrying a literal XML subtree.
func XMLDoc(name string, doc *xmlutil.Element) Value {
	return Value{Name: name, XML: doc}
}

// write streams the value as an RPC parameter element, the form
// ParseValue reads. Scalar, array and WriteXML values never touch the
// element tree; a literal XML tree bridges through Writer.Element.
func (v Value) write(w *xmlutil.Writer) {
	w.Start("", v.Name)
	switch {
	case v.XML != nil:
		w.Element(v.XML)
	case v.WriteXML != nil:
		v.WriteXML(w)
	case v.Type == "Array":
		w.Attr(XSINS, "type", "soapenc:Array")
		for _, item := range v.Items {
			item.write(w)
		}
	default:
		if v.Type != "" {
			w.Attr(XSINS, "type", "xsd:"+v.Type)
		}
		w.Text(v.Text)
	}
	w.End()
}

// ParseValue reads an RPC parameter element back into a Value.
func ParseValue(el *xmlutil.Element) Value {
	v := Value{Name: el.Name}
	typeAttr, _ := el.Attr("type")
	switch {
	case typeAttr == "soapenc:Array" || len(el.ChildrenNamed("item")) > 0 && typeAttr == "":
		v.Type = "Array"
		for _, c := range el.Children {
			v.Items = append(v.Items, ParseValue(c))
		}
	case len(el.Children) > 0 && typeAttr == "":
		v.XML = el.Children[0]
	default:
		v.Type = strings.TrimPrefix(typeAttr, "xsd:")
		if v.Type == "" {
			v.Type = "string"
		}
		v.Text = el.Text
	}
	return v
}

// Call is an RPC-style SOAP request: a method in a service namespace with
// ordered parameters.
type Call struct {
	// ServiceNS is the namespace URI identifying the service interface.
	ServiceNS string
	// Method is the operation name.
	Method string
	// Params are the in parameters, in order.
	Params []Value
}

// WireEnvelope builds the request envelope with a streamed body: when
// serialised it writes the call element and parameters directly to the
// buffer, with no element tree. It is the one request encoder; goldens
// pin its bytes. Parameter values are read at serialisation time, so
// interceptors that run before the transport see (and may still amend)
// the call.
func (c *Call) WireEnvelope() *Envelope {
	return &Envelope{stream: c}
}

// WireEnvelopeInto is WireEnvelope initialising a caller-provided
// Envelope in place — the allocation-free form for clients that embed
// the call and its envelope in one request-scoped allocation.
func (c *Call) WireEnvelopeInto(env *Envelope) {
	*env = Envelope{stream: c}
}

// streamBody emits the call element and parameters; it reads the Call at
// serialisation time, implementing bodyStreamer for WireEnvelope.
func (c *Call) streamBody(w *xmlutil.Writer) {
	w.Start(c.ServiceNS, c.Method)
	w.Attr(EnvelopeNS, "encodingStyle", EncodingNS)
	for _, p := range c.Params {
		p.write(w)
	}
	w.End()
}

// ParseCall extracts the RPC call from a request envelope.
func ParseCall(env *Envelope) (*Call, error) {
	if len(env.Body) == 0 {
		return nil, emptyBodyFault()
	}
	op := env.Body[0]
	c := &Call{ServiceNS: op.Space, Method: op.Name}
	for _, p := range op.Children {
		c.Params = append(c.Params, ParseValue(p))
	}
	return c, nil
}

// Response is an RPC-style SOAP response: either return values or a fault.
type Response struct {
	// Method is the operation the response answers.
	Method string
	// ServiceNS is the service interface namespace.
	ServiceNS string
	// Returns are the out parameters, in order.
	Returns []Value
	// Fault is non-nil when the call failed.
	Fault *Fault
}

// WireEnvelope builds the response envelope with a streamed body: the
// operation response element, return values, or fault are written directly
// to the output buffer at serialisation time, with no element tree. It is
// the one response encoder, the rpc kernel's; goldens pin its bytes.
func (r *Response) WireEnvelope() *Envelope {
	env := &Envelope{}
	r.WireEnvelopeInto(env)
	return env
}

// WireEnvelopeInto is WireEnvelope initialising a caller-provided
// Envelope in place — the allocation-free form for dispatch paths that
// embed the response and its envelope in one request-scoped allocation.
func (r *Response) WireEnvelopeInto(env *Envelope) {
	*env = Envelope{stream: r}
}

// streamBody emits the response wrapper and return values (or the fault),
// implementing bodyStreamer for WireEnvelope.
func (r *Response) streamBody(w *xmlutil.Writer) {
	if r.Fault != nil {
		r.Fault.write(w)
		return
	}
	w.StartSuffix(r.ServiceNS, r.Method, "Response")
	for _, v := range r.Returns {
		v.write(w)
	}
	w.End()
}

// ParseResponse extracts an RPC response from an envelope. A Fault body
// yields a Response with Fault set (and is also returned as the error).
func ParseResponse(env *Envelope) (*Response, error) {
	if len(env.Body) == 0 {
		return nil, errEmptyResponse
	}
	first := env.Body[0]
	if first.Name == "Fault" && first.Space == EnvelopeNS {
		f := ParseFault(first)
		return &Response{Fault: f}, f
	}
	r := &Response{ServiceNS: first.Space, Method: strings.TrimSuffix(first.Name, "Response")}
	for _, c := range first.Children {
		r.Returns = append(r.Returns, ParseValue(c))
	}
	return r, nil
}

// Return returns the named out parameter, or the first one when name is
// empty, along with whether it was found.
func (r *Response) Return(name string) (Value, bool) {
	if name == "" && len(r.Returns) > 0 {
		return r.Returns[0], true
	}
	for _, v := range r.Returns {
		if v.Name == name {
			return v, true
		}
	}
	return Value{}, false
}

// ReturnText returns the text of the named (or first, when name == "") out
// parameter, or "".
func (r *Response) ReturnText(name string) string {
	v, _ := r.Return(name)
	return v.Text
}

// Args is a convenience view over call parameters by name.
type Args []Value

// Get returns the named parameter and whether it exists.
func (a Args) Get(name string) (Value, bool) {
	for _, v := range a {
		if v.Name == name {
			return v, true
		}
	}
	return Value{}, false
}

// String returns the named string parameter or "".
func (a Args) String(name string) string {
	v, _ := a.Get(name)
	return v.Text
}

// Int returns the named int parameter or 0.
func (a Args) Int(name string) int {
	v, ok := a.Get(name)
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimSpace(v.Text))
	if err != nil {
		return 0
	}
	return n
}

// Bool returns the named boolean parameter or false.
func (a Args) Bool(name string) bool {
	v, ok := a.Get(name)
	if !ok {
		return false
	}
	b, _ := strconv.ParseBool(strings.TrimSpace(v.Text))
	return b
}

// Strings returns the named string-array parameter as a slice.
func (a Args) Strings(name string) []string {
	v, ok := a.Get(name)
	if !ok {
		return nil
	}
	out := make([]string, 0, len(v.Items))
	for _, item := range v.Items {
		out = append(out, item.Text)
	}
	return out
}

// XML returns the literal XML subtree of the named parameter, or nil.
func (a Args) XML(name string) *xmlutil.Element {
	v, ok := a.Get(name)
	if !ok {
		return nil
	}
	return v.XML
}
