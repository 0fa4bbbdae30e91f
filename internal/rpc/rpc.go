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
// contract is derived from the table, and every operation gets a kernel
// handler that types its arguments per the In table, invokes the typed
// implementation, and encodes the returns.
func (d *Def) Build() (*core.Service, error) {
	svc := core.NewService(d.Interface())
	if d.Path != "" {
		svc.Path = d.Path
	}
	for i := range d.Ops {
		op := d.Ops[i]
		if op.Handle == nil {
			return nil, fmt.Errorf("rpc: %s.%s has no handler", d.Name, op.Name)
		}
		svc.Handle(op.Name, kernelHandler(&opCodec{service: d.Name, params: op.In}, op))
	}
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

// kernelHandler adapts one typed operation into the core handler shape:
// it types the raw wire values once, runs the operation, and encodes its
// returns.
func kernelHandler(c *opCodec, op Op) core.HandlerFunc {
	return func(ctx *core.Context, raw soap.Args) ([]soap.Value, error) {
		in, err := c.decode(raw)
		if err != nil {
			return nil, err
		}
		// Handlers must not retain in: its scratch goes back to the pool
		// when the operation returns.
		defer in.scratch.release()
		outs, err := op.Handle(ctx, in)
		if err != nil {
			return nil, err
		}
		return encodeReturns(c.service, op.Name, op.Out, outs)
	}
}

// opCodec is one operation's parameter codec, built from the Op's
// wsdl.Param table once.
type opCodec struct {
	service string
	params  []wsdl.Param
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
	str  string
	num  int
	fl   float64
	b    bool
	strs []string
	xml  *xmlutil.Element
}

// decodeScratch is the pooled per-request decode state: the typed slots
// the codec fills. Pooling it removes a per-request slice allocation that
// parallel load multiplies into GC pressure. The handler-retention
// contract covers it: handlers must not retain request arguments past
// their return, so once the operation is over the scratch can be zeroed
// and recycled.
type decodeScratch struct {
	slots []argSlot
}

var scratchPool = sync.Pool{New: func() interface{} { return new(decodeScratch) }}

func acquireScratch(nparams int) *decodeScratch {
	sc := scratchPool.Get().(*decodeScratch)
	if cap(sc.slots) < nparams {
		sc.slots = make([]argSlot, nparams)
	}
	sc.slots = sc.slots[:nparams]
	return sc
}

// release zeroes every slot the request decoded into — so the pool never
// pins request data — and recycles the scratch.
func (sc *decodeScratch) release() {
	clear(sc.slots)
	scratchPool.Put(sc)
}

// Args carries the decoded, type-checked input parameters of one call.
// Missing optional parameters read as zero values; malformed values were
// already rejected by the kernel before the handler ran.
type Args struct {
	op    *opCodec
	slots []argSlot
	// scratch, when non-nil, is the pooled backing store of slots, which
	// the kernel handler releases once the operation returns.
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

// decode turns the raw wire parameters into typed values, validating
// each present scalar against its declared XSD type through databind; the
// first wire occurrence of a name wins, as soap.Args.Get reads it. A
// malformed value is a caller error and surfaces as a BadRequest portal
// error; an absent parameter decodes to the zero value, matching the
// tolerant behaviour of the paper's Python services.
func (c *opCodec) decode(raw soap.Args) (Args, error) {
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

// decodeParam decodes one wire value into its slot per the declared type.
func decodeParam(declaredType string, v *soap.Value, s *argSlot) error {
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
		switch x := v.(type) {
		case *xmlutil.Element:
			return soap.XMLDoc(p.Name, x), nil
		case func(*xmlutil.Writer):
			return soap.Value{Name: p.Name, WriteXML: x}, nil
		}
		return soap.Value{}, fmt.Errorf("got %T, want *xmlutil.Element or func(*xmlutil.Writer)", v)
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
