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

// FuzzStreamVsTreeDispatch pins the streaming fast path to the pooled
// tree path at the wire level: any POST body whatsoever must produce a
// byte-identical HTTP response from a provider running with the raw fast
// path enabled and one running tree-only. This is the safety net for the
// treeless decoder — whenever the streaming reader accepts an envelope,
// its decode must match what the tree codecs would have produced, and
// whenever it bails out the fallback must be transparent. Seeds cover the
// golden request corpus of every service plus the tricky shapes the
// reader is supposed to reject (headers, faults, literal XML, entities,
// nested arrays, junk).
func FuzzStreamVsTreeDispatch(f *testing.F) {
	build := func(stream bool) *core.Provider {
		p := core.NewProvider("fuzz-ssp", "http://fuzz.example")
		svc := typedDef().MustBuild()
		if !stream {
			svc.Stream = nil // every request takes the tree path
		}
		p.MustRegister(svc)
		return p
	}
	// Two independent providers so per-request state (stats, caches) on
	// one path can never leak into the other's responses.
	tree := build(false)
	fast := build(true)
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
	// Shapes the streaming reader must reject and route to the tree path.
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
