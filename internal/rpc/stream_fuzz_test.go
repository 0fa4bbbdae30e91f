package rpc

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/soap"
)

// FuzzStreamVsTreeDispatch pins Provider.Serve, whose one decoder is the
// streaming reader, to the tree dispatch it replaced (TreeOracle) at the
// wire level: any POST body whatsoever must produce a byte-identical HTTP
// response from both, the same values where the request decodes and the
// same fault where it does not, a syntax error anywhere winning over the
// structural, unknown-service, no-such-method and BadRequest faults.
// Seeds cover the golden request corpus of every service plus the shapes
// the reader streams past or carves (headers wherever they sit, literal
// XML, untyped and nested arrays, comments, CDATA, extra entries) and
// junk.
func FuzzStreamVsTreeDispatch(f *testing.F) {
	build := func() *core.Provider {
		p := core.NewProvider("fuzz-ssp", "http://fuzz.example")
		p.MustRegister(typedDef().MustBuild())
		return p
	}
	// Two independent providers so per-request state (stats, caches) on
	// one path can never leak into the other's responses.
	tree := NewTreeOracle(build())
	fast := build()
	treeSrv := httptest.NewServer(soap.Handler(tree.Serve))
	fastSrv := httptest.NewServer(soap.Handler(fast.Serve))
	f.Cleanup(treeSrv.Close)
	f.Cleanup(fastSrv.Close)

	// The golden request corpus: real envelopes for every portal service.
	// Against this provider they exercise the unknown-service fallback;
	// mutations of them explore the full envelope grammar.
	if paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.xml")); err == nil {
		for _, p := range paths {
			if data, err := os.ReadFile(p); err == nil {
				f.Add(data)
			}
		}
	}
	// An in-grammar request for the registered service, built by the same
	// encoder the clients use.
	call := &soap.Call{
		ServiceNS: "urn:test:typedecho",
		Method:    "describe",
		Params: []soap.Value{
			soap.Str("s", "hi"), soap.Int("n", 21), soap.Bool("b", false),
			soap.StrArray("list", []string{"a", "b"}),
		},
	}
	f.Add([]byte(call.WireEnvelope().Render()))
	// Shapes the streaming reader once declined to the tree path: a
	// header, literal XML, entities, an empty body, junk.
	f.Add([]byte(`<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Header><tok>x</tok></e:Header><e:Body>` +
		`<m:describe xmlns:m="urn:test:typedecho"><s>hdr</s></m:describe></e:Body></e:Envelope>`))
	f.Add([]byte(`<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>` +
		`<m:describe xmlns:m="urn:test:typedecho"><doc><inner a="b">payload</inner></doc></m:describe></e:Body></e:Envelope>`))
	f.Add([]byte(`<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>` +
		`<m:describe xmlns:m="urn:test:typedecho"><s>a &amp; b &#60;</s><n>7</n></m:describe></e:Body></e:Envelope>`))
	f.Add([]byte(`<?xml version="1.0"?><e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body/></e:Envelope>`))
	f.Add([]byte(`not xml at all`))
	f.Add([]byte(`<a><b></a></b>`))

	// The shapes the one decoder streams past or carves.
	const (
		envOpen = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
			`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/" xmlns:x="http://www.w3.org/2001/XMLSchema-instance">`
		bodyOpen  = `<e:Body><m:describe xmlns:m="urn:test:typedecho">`
		bodyClose = `</m:describe></e:Body>`
		envClose  = `</e:Envelope>`
		assertion = `<s:Assertion xmlns:s="urn:oasis:names:tc:SAML:1.0:assertion" AssertionID="a1" Issuer="authsvc">` +
			`<s:AuthenticationStatement><s:Subject><s:NameIdentifier>cyoun</s:NameIdentifier></s:Subject>` +
			`</s:AuthenticationStatement></s:Assertion>`
	)
	request := func(params string) string { return envOpen + bodyOpen + params + bodyClose + envClose }
	for _, doc := range []string{
		// Comments and CDATA inside parameters, and a DOCTYPE.
		request(`<s>a<!-- c -->b</s><!-- between --><n> 4<!-- c -->2 </n>`),
		request(`<s><![CDATA[<x>&amp;</x>]]> tail</s><list x:type="soapenc:Array"><item><![CDATA[a]]></item><!-- c --></list>`),
		`<!DOCTYPE e:Envelope>` + request(`<s>x</s>`),
		// Headers: a SAML assertion alone, with a foreign entry, and an
		// entry with mustUnderstand="1", which nothing enforces.
		envOpen + `<e:Header>` + assertion + `</e:Header>` + bodyOpen + `<s>hdr</s>` + bodyClose + envClose,
		envOpen + `<e:Header>` + assertion + `<f:trace xmlns:f="urn:foreign">t</f:trace></e:Header>` + bodyOpen + bodyClose + envClose,
		envOpen + `<e:Header><f:must xmlns:f="urn:foreign" e:mustUnderstand="1">m</f:must></e:Header>` + bodyOpen + `<n>3</n>` + bodyClose + envClose,
		// A Header after the Body, foreign Envelope children, a second
		// Body entry.
		envOpen + bodyOpen + `<s>late</s>` + bodyClose + `<e:Header>` + assertion + `</e:Header>` + envClose,
		envOpen + `<f:x xmlns:f="urn:foreign"><e:Body/></f:x>` + bodyOpen + `<s>after</s>` + bodyClose + `<f:y xmlns:f="urn:foreign"/>` + envClose,
		envOpen + `<e:Body><m:describe xmlns:m="urn:test:typedecho"><s>one</s></m:describe><m:boom xmlns:m="urn:test:typedecho"/></e:Body>` + envClose,
		// XML-typed parameters, untyped item arrays, nested arrays, and
		// a typed element with children.
		request(`<doc><job id="7"><step>run</step><!-- c --></job><second/></doc><s>x</s>`),
		request(`<list><item>a</item><item x:type="xsd:string">b</item></list>`),
		request(`<list x:type="soapenc:Array"><item x:type="soapenc:Array"><item>in</item></item><item><d>x</d></item></list>`),
		request(`<n x:type="xsd:int"> 5 <c/></n><b x:type="xsd:boolean">true<c/></b>`),
	} {
		f.Add([]byte(doc))
	}

	post := func(url string, body []byte) (int, string, []byte, error) {
		resp, err := http.Post(url, "text/xml; charset=utf-8", bytes.NewReader(body))
		if err != nil {
			return 0, "", nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), b, err
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		tc, tct, tb, terr := post(treeSrv.URL, body)
		fc, fct, fb, ferr := post(fastSrv.URL, body)
		if (terr != nil) != (ferr != nil) {
			t.Fatalf("transport error divergence: tree=%v fast=%v", terr, ferr)
		}
		if terr != nil {
			return
		}
		if tc != fc {
			t.Fatalf("status divergence: tree=%d fast=%d\nbody: %q\ntree resp: %s\nfast resp: %s", tc, fc, body, tb, fb)
		}
		if tct != fct {
			t.Fatalf("content-type divergence: tree=%q fast=%q", tct, fct)
		}
		if !bytes.Equal(tb, fb) {
			t.Fatalf("response divergence for %q\ntree: %s\nfast: %s", body, tb, fb)
		}
	})
}
