package rpc

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/databind"
	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

// Handler is a typed operation implementation: it receives decoded,
// validated parameters and returns the out values in the order the
// operation's Out table declares them. The kernel handles all soap.Value
// encoding and decoding.
type Handler func(c *core.Context, in Args) ([]interface{}, error)

// Op is one declarative operation descriptor: the operation's contract
// (name, doc, typed params and returns) together with its implementation.
// The kernel derives the wsdl.Operation from the same table, so contract
// and implementation cannot drift.
type Op struct {
	// Name is the operation name.
	Name string
	// Doc is the human-readable description, emitted as wsdl:documentation.
	Doc string
	// In declares the input parameters in order.
	In []wsdl.Param
	// Out declares the output parameters in order.
	Out []wsdl.Param
	// Idempotent declares that repeating the operation observes the same
	// effect as invoking it once (reads, queries, absolute writes), which
	// permits clients to retry it on ambiguous transport failures. Leave
	// false for operations with cumulative side effects (submissions,
	// appends, counters).
	Idempotent bool
	// Handle implements the operation.
	Handle Handler
}

// Def is a service descriptor: identity plus the operation table. It is
// the single source from which the kernel derives the WSDL interface,
// registers handlers, and wires parameter codecs.
type Def struct {
	// Name is the port type name, e.g. "BatchScriptGenerator".
	Name string
	// NS is the service namespace URI.
	NS string
	// Doc is the interface documentation.
	Doc string
	// Path optionally overrides the provider mount path ("/" + Name).
	Path string
	// Ops is the operation table in declaration order.
	Ops []Op
}

// Interface derives the abstract WSDL contract from the descriptor table.
func (d *Def) Interface() *wsdl.Interface {
	ops := make([]wsdl.Operation, len(d.Ops))
	for i, op := range d.Ops {
		ops[i] = wsdl.Operation{Name: op.Name, Doc: op.Doc, Input: op.In, Output: op.Out, Idempotent: op.Idempotent}
	}
	return &wsdl.Interface{Name: d.Name, TargetNS: d.NS, Doc: d.Doc, Operations: ops}
}

// Build compiles the descriptor into a deployable core.Service: the
// contract is derived from the table, every operation gets a kernel
// handler that decodes arguments, invokes the typed implementation, and
// encodes the returns, and each operation's parameter table is compiled
// into a codec (the ParamDecoder seam) so requests can be decoded straight
// from the streaming token reader on the fast path.
func (d *Def) Build() (*core.Service, error) {
	svc := core.NewService(d.Interface())
	if d.Path != "" {
		svc.Path = d.Path
	}
	codecs := &streamCodecs{byOp: make(map[string]*opCodec, len(d.Ops))}
	for i := range d.Ops {
		op := d.Ops[i]
		if op.Handle == nil {
			return nil, fmt.Errorf("rpc: %s.%s has no handler", d.Name, op.Name)
		}
		c := compileCodec(d.Name, op)
		codecs.byOp[op.Name] = c
		svc.Handle(op.Name, kernelHandler(c, op))
	}
	svc.Stream = codecs
	return svc, nil
}

// MustBuild is Build for static wiring; it panics on a malformed table.
func (d *Def) MustBuild() *core.Service {
	svc, err := d.Build()
	if err != nil {
		panic(err)
	}
	return svc
}

// kernelHandler adapts one typed operation into the core handler shape.
// Arguments normally decode from the raw tree-parsed values; when the
// request came in through the streaming fast path the provider has already
// run the codec over the wire tokens and the typed Args ride in on
// ctx.Decoded, so the tree decode is skipped entirely.
func kernelHandler(c *opCodec, op Op) core.HandlerFunc {
	return func(ctx *core.Context, raw soap.Args) ([]soap.Value, error) {
		in, ok := ctx.Decoded.(Args)
		if !ok || in.op != c {
			var err error
			in, err = c.decodeTree(raw)
			if err != nil {
				return nil, err
			}
			// The kernel created this scratch, so the kernel recycles it;
			// fast-path Args are released by the provider (ReleaseStream)
			// after the whole dispatch. Handlers must not retain in.
			defer in.scratch.release()
		}
		outs, err := op.Handle(ctx, in)
		if err != nil {
			return nil, err
		}
		return encodeReturns(c.service, op.Name, op.Out, outs)
	}
}

// opCodec is one operation's compiled parameter codec — the ParamDecoder
// seam. Build derives it from the Op's wsdl.Param table once, and both
// decode paths (streaming tokens and raw tree values) run through it, so
// their validation semantics cannot drift.
type opCodec struct {
	service string
	params  []wsdl.Param
	// streamable is false when any declared In parameter is xml-typed:
	// literal XML payloads need the element tree, so the whole operation
	// always takes the tree path.
	streamable bool
}

func compileCodec(service string, op Op) *opCodec {
	c := &opCodec{service: service, params: op.In, streamable: true}
	for _, p := range op.In {
		if p.Type == "xml" {
			c.streamable = false
		}
	}
	return c
}

// index returns the declared position of a parameter name, or -1.
func (c *opCodec) index(name string) int {
	for i := range c.params {
		if c.params[i].Name == name {
			return i
		}
	}
	return -1
}

// argSlot is one decoded parameter: only the field matching the declared
// type is ever populated, so the Args accessors read their field
// unconditionally and absent or differently-typed parameters fall out as
// zero values, exactly as the old map-of-interface representation did.
type argSlot struct {
	// seen marks that a wire value already claimed this slot: the first
	// occurrence of a name wins, matching soap.Args.Get.
	seen bool
	str  string
	num  int
	fl   float64
	b    bool
	strs []string
	xml  *xmlutil.Element
}

// decodeScratch is the pooled per-request decode state: the typed slots
// both decode paths fill and the raw wire-value slice the streaming path
// decodes into. Pooling it removes the two per-request slice allocations
// that parallel load multiplies into GC pressure. The existing
// handler-retention contract covers it: handlers and middleware must not
// retain request arguments past their return, so once the dispatch is
// over the scratch can be zeroed and recycled.
type decodeScratch struct {
	slots []argSlot
	raw   []soap.Value
}

// maxPooledRawVals bounds the raw capacity a pooled scratch may retain, so
// one request with an absurd parameter list cannot pin that memory in the
// pool forever.
const maxPooledRawVals = 128

var scratchPool = sync.Pool{New: func() interface{} { return new(decodeScratch) }}

func acquireScratch(nparams int) *decodeScratch {
	sc := scratchPool.Get().(*decodeScratch)
	if cap(sc.slots) < nparams {
		sc.slots = make([]argSlot, nparams)
	}
	sc.slots = sc.slots[:nparams]
	if sc.raw == nil {
		// One spare slot beyond the declared arity: the end-of-entry probe
		// decodes into a slot before discovering it is the end tag, and the
		// spare keeps that probe from growing the slice on exact-arity calls.
		sc.raw = make([]soap.Value, 0, nparams+1)
	}
	sc.raw = sc.raw[:0]
	return sc
}

// release zeroes every slot and raw value the request decoded into — so
// the pool never pins request data — and recycles the scratch.
func (sc *decodeScratch) release() {
	for i := range sc.slots {
		sc.slots[i] = argSlot{}
	}
	raw := sc.raw[:cap(sc.raw)]
	for i := range raw {
		raw[i] = soap.Value{}
	}
	if cap(sc.raw) > maxPooledRawVals {
		sc.raw = nil
	}
	scratchPool.Put(sc)
}

// Args carries the decoded, type-checked input parameters of one call.
// Missing optional parameters read as zero values; malformed values were
// already rejected by the kernel before the handler ran.
type Args struct {
	op    *opCodec
	slots []argSlot
	// scratch, when non-nil, is the pooled backing store of slots (and on
	// the streaming path the raw values too); whoever created the Args
	// releases it after the dispatch completes.
	scratch *decodeScratch
}

func (a Args) slot(name string) *argSlot {
	if a.op == nil {
		return nil
	}
	if i := a.op.index(name); i >= 0 {
		return &a.slots[i]
	}
	return nil
}

// Str returns the named string parameter or "".
func (a Args) Str(name string) string {
	if s := a.slot(name); s != nil {
		return s.str
	}
	return ""
}

// Int returns the named int parameter or 0.
func (a Args) Int(name string) int {
	if s := a.slot(name); s != nil {
		return s.num
	}
	return 0
}

// Bool returns the named boolean parameter or false.
func (a Args) Bool(name string) bool {
	if s := a.slot(name); s != nil {
		return s.b
	}
	return false
}

// Float returns the named double parameter or 0.
func (a Args) Float(name string) float64 {
	if s := a.slot(name); s != nil {
		return s.fl
	}
	return 0
}

// Strings returns the named string-array parameter or nil.
func (a Args) Strings(name string) []string {
	if s := a.slot(name); s != nil {
		return s.strs
	}
	return nil
}

// XML returns the named literal XML parameter or nil.
func (a Args) XML(name string) *xmlutil.Element {
	if s := a.slot(name); s != nil {
		return s.xml
	}
	return nil
}

// decodeTree turns raw tree-parsed wire parameters into typed values,
// validating each present scalar against its declared XSD type through
// databind. A malformed value is a caller error and surfaces as a
// BadRequest portal error; an absent parameter decodes to the zero value,
// matching the tolerant behaviour of the paper's Python services.
func (c *opCodec) decodeTree(raw soap.Args) (Args, error) {
	sc := acquireScratch(len(c.params))
	slots := sc.slots
	for i, p := range c.params {
		v, ok := raw.Get(p.Name)
		if !ok {
			continue
		}
		if err := decodeParam(p.Type, &v, &slots[i]); err != nil {
			sc.release()
			return Args{}, soap.NewPortalError(c.service, soap.ErrCodeBadRequest,
				"parameter %q: %v", p.Name, err)
		}
	}
	return Args{op: c, slots: slots, scratch: sc}, nil
}

// decodeStream runs the codec over the streaming token reader, producing
// both the typed Args and the raw wire values the middleware chain sees
// (identical to what the tree path's ParseCall would produce, so caching
// and stats middleware behave the same on both paths). ok=false — a wire
// shape outside the streaming subset or a value failing validation —
// means the caller must fall back; the tree path then reproduces the
// exact historic fault.
func (c *opCodec) decodeStream(r *soap.BodyReader) (Args, []soap.Value, bool) {
	if !c.streamable {
		return Args{}, nil, false
	}
	sc := acquireScratch(len(c.params))
	slots := sc.slots
	raw := sc.raw
	fail := func() (Args, []soap.Value, bool) {
		sc.raw = raw
		sc.release()
		return Args{}, nil, false
	}
	for {
		// Decode into the raw slice in place: the Value never travels
		// through a return-and-append copy chain.
		if len(raw) == cap(raw) {
			raw = append(raw, soap.Value{})
		} else {
			raw = raw[:len(raw)+1]
		}
		v := &raw[len(raw)-1]
		done, ok := r.ReadValueInto(v)
		if !ok {
			return fail()
		}
		if done {
			raw = raw[:len(raw)-1]
			break
		}
		idx := c.index(v.Name)
		if idx < 0 {
			continue // undeclared parameters are carried raw but not typed
		}
		s := &slots[idx]
		if s.seen {
			continue // first wire occurrence wins, as soap.Args.Get does
		}
		if err := decodeParam(c.params[idx].Type, v, s); err != nil {
			return fail()
		}
	}
	sc.raw = raw
	return Args{op: c, slots: slots, scratch: sc}, raw, true
}

// decodeParam decodes one wire value into its slot per the declared type.
// Both decode paths funnel through here.
func decodeParam(declaredType string, v *soap.Value, s *argSlot) error {
	s.seen = true
	switch declaredType {
	case "int", "boolean", "double":
		text := strings.TrimSpace(v.Text)
		if text == "" {
			return nil
		}
		if err := databind.ValidateValue(declaredType, text); err != nil {
			return err
		}
		switch declaredType {
		case "int":
			s.num, _ = strconv.Atoi(text)
		case "boolean":
			s.b, _ = strconv.ParseBool(text)
		default:
			s.fl, _ = strconv.ParseFloat(text, 64)
		}
	case "stringArray":
		items := make([]string, 0, len(v.Items))
		for _, item := range v.Items {
			items = append(items, item.Text)
		}
		s.strs = items
	case "xml":
		if v.XML != nil {
			s.xml = v.XML
		}
	default: // "string" and any future scalar alias
		s.str = v.Text
	}
	return nil
}

// streamCodecs implements core.StreamDecoder over one service's compiled
// operation codecs.
type streamCodecs struct {
	byOp map[string]*opCodec
}

func (sc *streamCodecs) DecodeCallStream(op string, r *soap.BodyReader) (interface{}, []soap.Value, bool) {
	c := sc.byOp[op]
	if c == nil {
		return nil, nil, false
	}
	in, raw, ok := c.decodeStream(r)
	if !ok {
		return nil, nil, false
	}
	return in, raw, true
}

// ReleaseStream hands back the decode products once the dispatch is over
// (or the request fell back to the tree path), recycling the pooled
// scratch behind them.
func (sc *streamCodecs) ReleaseStream(decoded interface{}, _ []soap.Value) {
	if in, ok := decoded.(Args); ok && in.scratch != nil {
		in.scratch.release()
	}
}

// encodeReturns binds the handler's ordered return values to the declared
// out parameters. A shape mismatch is a service implementation bug and is
// relayed as an InternalError portal error rather than a silent
// misencoding.
func encodeReturns(service, op string, out []wsdl.Param, vals []interface{}) ([]soap.Value, error) {
	if len(vals) != len(out) {
		return nil, soap.NewPortalError(service, soap.ErrCodeInternal,
			"operation %s returned %d values, contract declares %d", op, len(vals), len(out))
	}
	res := make([]soap.Value, len(out))
	for i, p := range out {
		sv, err := encodeOne(p, vals[i])
		if err != nil {
			return nil, soap.NewPortalError(service, soap.ErrCodeInternal,
				"operation %s return %q: %v", op, p.Name, err)
		}
		res[i] = sv
	}
	return res, nil
}

func encodeOne(p wsdl.Param, v interface{}) (soap.Value, error) {
	if sv, ok := v.(soap.Value); ok { // escape hatch for pre-encoded values
		return sv, nil
	}
	switch p.Type {
	case "string":
		s, ok := v.(string)
		if !ok && v != nil {
			return soap.Value{}, fmt.Errorf("got %T, want string", v)
		}
		return soap.Str(p.Name, s), nil
	case "int":
		n, ok := v.(int)
		if !ok && v != nil {
			return soap.Value{}, fmt.Errorf("got %T, want int", v)
		}
		return soap.Int(p.Name, n), nil
	case "boolean":
		b, ok := v.(bool)
		if !ok && v != nil {
			return soap.Value{}, fmt.Errorf("got %T, want bool", v)
		}
		return soap.Bool(p.Name, b), nil
	case "double":
		f, ok := v.(float64)
		if !ok && v != nil {
			return soap.Value{}, fmt.Errorf("got %T, want float64", v)
		}
		return soap.Value{Name: p.Name, Type: "double", Text: strconv.FormatFloat(f, 'g', -1, 64)}, nil
	case "stringArray":
		if v == nil {
			return soap.StrArray(p.Name, nil), nil
		}
		items, ok := v.([]string)
		if !ok {
			return soap.Value{}, fmt.Errorf("got %T, want []string", v)
		}
		return soap.StrArray(p.Name, items), nil
	case "xml":
		if v == nil {
			return soap.Value{}, fmt.Errorf("got nil, want *xmlutil.Element")
		}
		el, ok := v.(*xmlutil.Element)
		if !ok {
			return soap.Value{}, fmt.Errorf("got %T, want *xmlutil.Element", v)
		}
		return soap.XMLDoc(p.Name, el), nil
	default:
		return soap.Value{}, fmt.Errorf("unsupported declared type %q", p.Type)
	}
}

// Ret packages a handler's return values; sugar for []interface{}{...}.
func Ret(vals ...interface{}) []interface{} { return vals }

// --- Param constructors -------------------------------------------------------

// Str declares a string parameter.
func Str(name string) wsdl.Param { return wsdl.Param{Name: name, Type: "string"} }

// Int declares an int parameter.
func Int(name string) wsdl.Param { return wsdl.Param{Name: name, Type: "int"} }

// Bool declares a boolean parameter.
func Bool(name string) wsdl.Param { return wsdl.Param{Name: name, Type: "boolean"} }

// Float declares a double parameter.
func Float(name string) wsdl.Param { return wsdl.Param{Name: name, Type: "double"} }

// Strs declares a string-array parameter.
func Strs(name string) wsdl.Param { return wsdl.Param{Name: name, Type: "stringArray"} }

// XML declares a literal-XML parameter.
func XML(name string) wsdl.Param { return wsdl.Param{Name: name, Type: "xml"} }

// StrParams declares a string parameter per name, in order.
func StrParams(names ...string) []wsdl.Param {
	out := make([]wsdl.Param, 0, len(names))
	for _, n := range names {
		out = append(out, Str(n))
	}
	return out
}
