package soap

import (
	"reflect"
	"testing"
)

// drainBody walks a BodyReader over a serialised envelope and returns the
// values it produced, or ok=false on any fallback signal — the same
// protocol the rpc codecs follow.
func drainBody(data []byte) (space, name string, vals []Value, ok bool) {
	r := AcquireBodyReader(data)
	defer r.Release()
	space, name, ok = r.Begin()
	if !ok {
		return "", "", nil, false
	}
	for {
		var v Value
		done, vok := r.ReadValueInto(&v)
		if !vok {
			return "", "", nil, false
		}
		if done {
			break
		}
		vals = append(vals, v)
	}
	if !r.Finish() {
		return "", "", nil, false
	}
	return space, name, vals, true
}

// TestBodyReaderMatchesTreeParse pins the streaming decode to ParseCall
// over the tree parse for in-subset envelopes — including one built by our
// own encoder (the prologue-seed fast path) and a foreign serialisation of
// the same infoset (the general scan).
func TestBodyReaderMatchesTreeParse(t *testing.T) {
	call := &Call{ServiceNS: "urn:svc", Method: "submit", Params: []Value{
		Str("host", "grid.example"),
		Int("count", 3),
		Bool("fast", true),
		StrArray("args", []string{"-l", "walltime=2h"}),
		Str("empty", ""),
	}}
	ours := []byte(call.WireEnvelope().Render())
	foreign := []byte(`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">` +
		"\n  <soap:Body>\n    " +
		`<m:submit xmlns:m="urn:svc" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">` +
		`<host xsi:type="xsd:string">grid.example</host>` +
		`<count xsi:type="xsd:int">3</count>` +
		`<fast xsi:type="xsd:boolean">true</fast>` +
		`<args xsi:type="soapenc:Array"><item xsi:type="xsd:string">-l</item><item xsi:type="xsd:string">walltime=2h</item></args>` +
		`<empty xsi:type="xsd:string"/>` +
		`</m:submit></soap:Body></soap:Envelope>`)
	for label, wire := range map[string][]byte{"own-encoder": ours, "foreign": foreign} {
		env, err := ParseEnvelopeBytes(wire)
		if err != nil {
			t.Fatalf("%s: tree parse: %v", label, err)
		}
		want, err := ParseCall(env)
		if err != nil {
			t.Fatalf("%s: ParseCall: %v", label, err)
		}
		space, name, vals, ok := drainBody(wire)
		if !ok {
			t.Fatalf("%s: streaming reader fell back on an in-subset envelope", label)
		}
		if space != want.ServiceNS || name != want.Method {
			t.Errorf("%s: op = %s|%s, want %s|%s", label, space, name, want.ServiceNS, want.Method)
		}
		if !reflect.DeepEqual(vals, want.Params) {
			t.Errorf("%s: params diverge\n got: %+v\nwant: %+v", label, vals, want.Params)
		}
	}
}

// TestBodyReaderFallsBack enumerates the shapes the reader must refuse so
// the tree path keeps its authority over them.
func TestBodyReaderFallsBack(t *testing.T) {
	envelope := func(body string) string {
		return `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>` +
			body + `</e:Body></e:Envelope>`
	}
	cases := map[string]string{
		"header": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">` +
			`<e:Header><tok>x</tok></e:Header><e:Body><m:op xmlns:m="urn:s"/></e:Body></e:Envelope>`,
		"empty body":   `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body/></e:Envelope>`,
		"foreign root": `<r/>`,
		"literal xml param": envelope(
			`<m:op xmlns:m="urn:s"><doc><inner>payload</inner></doc></m:op>`),
		"nested array": envelope(`<m:op xmlns:m="urn:s" xmlns:x="http://www.w3.org/2001/XMLSchema-instance">` +
			`<a x:type="soapenc:Array"><item x:type="soapenc:Array"/></a></m:op>`),
		"array with stray text": envelope(`<m:op xmlns:m="urn:s" xmlns:x="http://www.w3.org/2001/XMLSchema-instance">` +
			`<a x:type="soapenc:Array">stray<item>v</item></a></m:op>`),
		"trailing body entry": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>` +
			`<m:op xmlns:m="urn:s"/><m:extra xmlns:m="urn:s"/></e:Body></e:Envelope>`,
		"comment":   envelope(`<m:op xmlns:m="urn:s"><!-- c --></m:op>`),
		"truncated": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body><m:op xmlns:m="urn:s">`,
	}
	for label, doc := range cases {
		if _, _, _, ok := drainBody([]byte(doc)); ok {
			t.Errorf("%s: reader accepted an out-of-subset envelope", label)
		}
	}
}

// TestParseResponseStreamParity checks the streamed response parse against
// ParseResponse, and that faults always fall back.
func TestParseResponseStreamParity(t *testing.T) {
	resp := &Response{ServiceNS: "urn:svc", Method: "submit", Returns: []Value{
		Str("jobID", "pbs.1234"),
		StrArray("nodes", []string{"n0", "n1"}),
	}}
	wire := []byte(resp.WireEnvelope().Render())
	env, err := ParseEnvelopeBytes(wire)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ParseResponse(env)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := ParseResponseStream(wire)
	if !ok {
		t.Fatal("ParseResponseStream fell back on an in-subset response")
	}
	if got.ServiceNS != want.ServiceNS || got.Method != want.Method {
		t.Errorf("identity = %s.%s, want %s.%s", got.ServiceNS, got.Method, want.ServiceNS, want.Method)
	}
	if !reflect.DeepEqual(got.Returns, want.Returns) {
		t.Errorf("returns diverge\n got: %+v\nwant: %+v", got.Returns, want.Returns)
	}

	fault := &Response{ServiceNS: "urn:svc", Method: "submit",
		Fault: &Fault{Code: FaultServer, String: "scheduler down"}}
	if _, ok := ParseResponseStream([]byte(fault.WireEnvelope().Render())); ok {
		t.Error("ParseResponseStream accepted a fault envelope; faults must relay through the tree path")
	}
}

// TestBodyReaderPoolReuse runs acquire/decode/release cycles over
// different envelopes to prove no state survives recycling.
func TestBodyReaderPoolReuse(t *testing.T) {
	a := []byte((&Call{ServiceNS: "urn:a", Method: "one", Params: []Value{Str("p", "x")}}).WireEnvelope().Render())
	b := []byte((&Call{ServiceNS: "urn:b", Method: "two", Params: []Value{Int("q", 9)}}).WireEnvelope().Render())
	for i := 0; i < 6; i++ {
		wire, wantNS, wantOp := a, "urn:a", "one"
		if i%2 == 1 {
			wire, wantNS, wantOp = b, "urn:b", "two"
		}
		space, name, vals, ok := drainBody(wire)
		if !ok || space != wantNS || name != wantOp || len(vals) != 1 {
			t.Fatalf("cycle %d: %s|%s vals=%d ok=%v", i, space, name, len(vals), ok)
		}
	}
}

// TestParseResponseStreamEdgeParity pins two documents on which the
// streamed parse used to disagree with the tree path: an entity error in
// character data nobody reads, which the tree parser rejects, and a type
// attribute whose prefix is bound to no namespace, which Element.Attr
// counts as unqualified.
func TestParseResponseStreamEdgeParity(t *testing.T) {
	const open = `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>`
	const close = `</e:Body></e:Envelope>`
	bad := []byte(open + `&bogus;<m:opResponse xmlns:m="urn:s"><r>v</r></m:opResponse>` + close)
	if _, err := ParseEnvelopeBytes(bad); err == nil {
		t.Fatal("tree parse accepted an undefined entity")
	}
	if _, ok := ParseResponseStream(bad); ok {
		t.Error("ParseResponseStream accepted an undefined entity in skipped character data")
	}

	typed := []byte(open + `<m:opResponse xmlns:m="urn:s"><r xmlns:x="" x:type="xsd:int" type="xsd:string">7</r>` +
		`</m:opResponse>` + close)
	env, err := ParseEnvelopeBytes(typed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ParseResponse(env)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := ParseResponseStream(typed)
	if !ok {
		t.Fatal("ParseResponseStream fell back on an in-subset response")
	}
	if !reflect.DeepEqual(got.Returns, want.Returns) {
		t.Errorf("returns diverge\n got: %+v\nwant: %+v", got.Returns, want.Returns)
	}
}
