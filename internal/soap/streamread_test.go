package soap

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/xmlutil"
)

// decodeBody runs the request decoder over a serialised envelope and
// renders what it produced: the body entry, each parameter, and each
// header entry.
func decodeBody(data []byte) (space, name string, vals []string, err error) {
	r := AcquireBodyReader()
	defer r.Release()
	space, name, err = r.Decode(data)
	if err != nil {
		return "", "", nil, err
	}
	return space, name, renderRequest(r.Params(), r.Envelope().Header), nil
}

// renderRequest flattens decoded parameters and header entries into
// comparable strings; literal XML is compared by its rendering, since the
// two decoders build it in different storage.
func renderRequest(params []Value, header []*xmlutil.Element) []string {
	var out []string
	var value func(v Value) string
	value = func(v Value) string {
		s := fmt.Sprintf("%s|%s|%q", v.Name, v.Type, v.Text)
		if v.XML != nil {
			s += "|xml:" + v.XML.Render()
		}
		if v.Items != nil {
			s += "|items:"
			for _, it := range v.Items {
				s += "(" + value(it) + ")"
			}
		}
		return s
	}
	for _, v := range params {
		out = append(out, value(v))
	}
	for _, h := range header {
		out = append(out, "header:"+h.Render())
	}
	return out
}

const (
	envOpen  = `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>`
	envClose = `</e:Body></e:Envelope>`
	xsiNS    = ` xmlns:x="http://www.w3.org/2001/XMLSchema-instance"`
)

func envelope(body string) string { return envOpen + body + envClose }

// checkTreeParity decodes each document with the request decoder and with
// ParseEnvelopeBytes plus ParseCall, the tree decode it replaced, and
// requires the same operation, parameters and header entries, or the same
// fault text.
func checkTreeParity(t *testing.T, cases map[string]string) {
	t.Helper()
	for label, doc := range cases {
		wire := []byte(doc)
		var want *Call
		env, wantErr := ParseEnvelopeBytes(wire)
		if wantErr == nil {
			want, wantErr = ParseCall(env)
		}
		space, name, vals, err := decodeBody(wire)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: error %v, tree path %v", label, err, wantErr)
			}
			continue
		}
		if space != want.ServiceNS || name != want.Method {
			t.Errorf("%s: op = %s|%s, want %s|%s", label, space, name, want.ServiceNS, want.Method)
		}
		if wantVals := renderRequest(want.Params, env.Header); !reflect.DeepEqual(vals, wantVals) {
			t.Errorf("%s: request diverges\n got: %q\nwant: %q", label, vals, wantVals)
		}
	}
}

// TestBodyReaderMatchesTreeParse pins the request decoder to the tree
// decode on the shapes our own encoder writes (the prologue-seed fast
// path), on a foreign serialisation of the same infoset (the general
// scan), and on headers after the Body, foreign Envelope children, untyped
// arrays, typed elements with children, and broken envelopes, syntax
// first.
func TestBodyReaderMatchesTreeParse(t *testing.T) {
	call := &Call{ServiceNS: "urn:svc", Method: "submit", Params: []Value{
		Str("host", "grid.example"),
		Int("count", 3),
		Bool("fast", true),
		StrArray("args", []string{"-l", "walltime=2h"}),
		Str("empty", ""),
	}}
	checkTreeParity(t, map[string]string{
		"own encoder": call.WireEnvelope().Render(),
		"foreign": `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">` +
			"\n  <soap:Body>\n    " +
			`<m:submit xmlns:m="urn:svc" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">` +
			`<host xsi:type="xsd:string">grid.example</host>` +
			`<count xsi:type="xsd:int">3</count>` +
			`<fast xsi:type="xsd:boolean">true</fast>` +
			`<args xsi:type="soapenc:Array"><item xsi:type="xsd:string">-l</item><item xsi:type="xsd:string">walltime=2h</item></args>` +
			`<empty xsi:type="xsd:string"/>` +
			`</m:submit></soap:Body></soap:Envelope>`,
		"header after body, second header": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">` +
			`<e:Body><m:op xmlns:m="urn:s"><p>v</p></m:op></e:Body><e:Header><first/></e:Header>` +
			`<e:Header><second/></e:Header></e:Envelope>`,
		"foreign envelope children": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">` +
			`<f:x xmlns:f="urn:f"><e:Body><m:no xmlns:m="urn:s"/></e:Body></f:x><Header/>` +
			`<e:Body><m:op xmlns:m="urn:s"/></e:Body><e:Body><m:late xmlns:m="urn:s"/></e:Body></e:Envelope>`,
		"untyped item array":  envelope(`<m:op xmlns:m="urn:s"><a><item>1</item><item>2</item></a></m:op>`),
		"typed with children": envelope(`<m:op xmlns:m="urn:s"` + xsiNS + `><n x:type="xsd:int"> 4 <c/> 2 </n></m:op>`),
		"no body":             `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Header/></e:Envelope>`,
		"other version":       `<Envelope xmlns="urn:not-soap"><Body><m:op xmlns:m="urn:s"/></Body></Envelope>`,
		"late syntax":         `<r/><!DOCTYPE r>`,
		"error in tail":       envelope(`<m:op xmlns:m="urn:s"><p>1</p></m:op>`) + `&bogus;`,
		"error in param":      envelope(`<m:op xmlns:m="urn:s"><doc><i>&bogus;</i></doc></m:op>`),
	})
}

// TestBodyReaderFallsBack covers the shapes the request decoder used to
// hand back to the tree decode: headers, an empty Body, a foreign root,
// literal XML, nested arrays, arrays with stray text, a trailing body
// entry, comments and CDATA, and truncation. None falls back any more;
// each must decode as the tree decode does, or fail with its fault.
func TestBodyReaderFallsBack(t *testing.T) {
	checkTreeParity(t, map[string]string{
		"header": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">` +
			`<e:Header><tok>x</tok><s:Assertion xmlns:s="urn:saml" e:mustUnderstand="1" issuer="a"/></e:Header>` +
			`<e:Body><m:op xmlns:m="urn:s"/></e:Body></e:Envelope>`,
		"empty body":        `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body/></e:Envelope>`,
		"foreign root":      `<r/>`,
		"literal xml param": envelope(`<m:op xmlns:m="urn:s"><doc><inner a="b">payload</inner><two/></doc></m:op>`),
		"nested array": envelope(`<m:op xmlns:m="urn:s"` + xsiNS + `>` +
			`<a x:type="soapenc:Array"><item x:type="soapenc:Array"><item>in</item></item><item><d>x</d></item></a></m:op>`),
		"array with stray text": envelope(`<m:op xmlns:m="urn:s"` + xsiNS + `>` +
			`<a x:type="soapenc:Array">stray<item>v</item> &amp; </a></m:op>`),
		"trailing body entry": envelope(`<m:op xmlns:m="urn:s"><p>1</p></m:op><m:extra xmlns:m="urn:s"><p>2</p></m:extra>`),
		"comments and cdata": envelope(`<m:op xmlns:m="urn:s"><!-- c --><p>a<!-- c -->b<![CDATA[<&>]]>` +
			"\r\n" + `</p><q><![CDATA[]]></q></m:op>`),
		"truncated": envelope(`<m:op xmlns:m="urn:s">`)[:len(envOpen)+21],
	})
}

// renderResponse flattens a decoded response, or its error, into
// comparable strings: the operation, the returns as renderRequest renders
// them, and a fault's code, string, actor and rendered detail.
func renderResponse(resp *Response, err error) []string {
	if err != nil && AsFault(err) == nil {
		return []string{"error:" + err.Error()}
	}
	if f := resp.Fault; f != nil {
		out := []string{fmt.Sprintf("fault:%s|%s|%s|%v", f.Code, f.String, f.Actor, err == error(f))}
		for _, d := range f.Detail {
			out = append(out, "detail:"+d.Render())
		}
		return out
	}
	return append([]string{"op:" + resp.ServiceNS + "|" + resp.Method}, renderRequest(resp.Returns, nil)...)
}

// checkResponseParity decodes each document with DecodeResponse and with
// ParseEnvelopeBytes plus ParseResponse, and requires the same response,
// fault or error text.
func checkResponseParity(t *testing.T, cases map[string]string) {
	t.Helper()
	for label, doc := range cases {
		wire := []byte(doc)
		var want *Response
		env, wantErr := ParseEnvelopeBytes(wire)
		if wantErr == nil {
			want, wantErr = ParseResponse(env)
		}
		got, release, err := DecodeResponse(wire)
		if g, w := renderResponse(got, err), renderResponse(want, wantErr); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: response diverges\n got: %q\nwant: %q", label, g, w)
		}
		release()
	}
}

// TestDecodeResponseParity pins the response decoder to the tree decode
// on flat and XML returns, faults, headers and broken envelopes.
func TestDecodeResponseParity(t *testing.T) {
	resp := &Response{ServiceNS: "urn:svc", Method: "submit", Returns: []Value{
		Str("jobID", "pbs.1234"),
		StrArray("nodes", []string{"n0", "n1"}),
		XMLDoc("doc", xmlutil.New("job").SetAttr("id", "7").AddText("state", "queued")),
	}}
	fault := &Response{Fault: NewPortalError("svc", ErrCodeResourceFull, "disk full").Fault()}
	twoDetails := &Response{Fault: &Fault{Code: FaultClient, String: "bad", Actor: "urn:a",
		Detail: []*xmlutil.Element{xmlutil.NewText("one", "1"), xmlutil.New("two").AddText("x", "2")}}}
	checkResponseParity(t, map[string]string{
		"own encoder":  resp.WireEnvelope().Render(),
		"portal error": fault.WireEnvelope().Render(),
		"two details":  twoDetails.WireEnvelope().Render(),
		"header": `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Header><h>x</h></e:Header>` +
			`<e:Body><m:opResponse xmlns:m="urn:s"><r>v</r></m:opResponse></e:Body></e:Envelope>`,
		"split scalar": envelope(`<m:opResponse xmlns:m="urn:s"><r>a<!-- c -->b<![CDATA[<&>]]>c</r></m:opResponse>`),
		"empty body":   envelope(""),
		"not envelope": `<r><e:Body xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"/></r>`,
		"no body":      `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"/>`,
		"fault not first": envelope(`<m:opResponse xmlns:m="urn:s"/><e:Fault xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">` +
			`<faultcode>e:Server</faultcode></e:Fault>`),
		"foreign fault": envelope(`<Fault><faultcode>Server</faultcode></Fault>`),
		"broken fault":  envelope(`<e:Fault xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><detail><x>&bogus;</x></detail></e:Fault>`),
		"truncated":     envelope(`<m:opResponse xmlns:m="urn:s"><r>v</r>`)[:len(envOpen)+30],
	})
}

// TestBodyReaderPoolReuse runs acquire/decode/release cycles over
// different envelopes, one with a carved header and literal XML, to prove
// no state survives recycling.
func TestBodyReaderPoolReuse(t *testing.T) {
	a := []byte((&Call{ServiceNS: "urn:a", Method: "one", Params: []Value{Str("p", "x")}}).WireEnvelope().Render())
	b := []byte(`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Header><h/></e:Header>` +
		`<e:Body><m:two xmlns:m="urn:b"><q><doc/></q></m:two></e:Body></e:Envelope>`)
	for i := 0; i < 6; i++ {
		wire, wantNS, wantOp, want := a, "urn:a", "one", `p|string|"x"`
		if i%2 == 1 {
			wire, wantNS, wantOp, want = b, "urn:b", "two", `q||""|xml:<doc/>`
		}
		space, name, vals, err := decodeBody(wire)
		if err != nil || space != wantNS || name != wantOp || len(vals) == 0 || vals[0] != want {
			t.Fatalf("cycle %d: %s|%s vals=%q err=%v", i, space, name, vals, err)
		}
	}
}

// TestDecodeResponseEdgeParity pins two documents on which the streamed
// response parse used to disagree with the tree path: an entity error in
// character data nobody reads, which the tree parser rejects, and a type
// attribute whose prefix is bound to no namespace, which Element.Attr
// counts as unqualified.
func TestDecodeResponseEdgeParity(t *testing.T) {
	const open = `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>`
	const close = `</e:Body></e:Envelope>`
	bad := []byte(open + `&bogus;<m:opResponse xmlns:m="urn:s"><r>v</r></m:opResponse>` + close)
	if _, err := ParseEnvelopeBytes(bad); err == nil {
		t.Fatal("tree parse accepted an undefined entity")
	}
	if _, _, err := DecodeResponse(bad); err == nil {
		t.Error("DecodeResponse accepted an undefined entity in skipped character data")
	}
	checkResponseParity(t, map[string]string{
		"unbound type prefix": open + `<m:opResponse xmlns:m="urn:s"><r xmlns:x="" x:type="xsd:int" type="xsd:string">7</r>` +
			`</m:opResponse>` + close,
	})
}
