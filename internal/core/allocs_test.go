package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/allocbudget"
	"repro/internal/soap"
)

// serveAllocs is the budget of allocations per Provider.Serve call of each
// request path, which TestServeAllocs enforces. The echo service has no
// StreamDecoder, so its requests take the tree path: a pooled parse, the
// tree dispatch and the encode.
var serveAllocs = []struct {
	name    string
	call    soap.Call
	allocs  float64
	wantOut string
}{
	{"tree", soap.Call{ServiceNS: "urn:test:echo", Method: "say", Params: []soap.Value{soap.Str("msg", "hello")}}, 7, ">hello<"},
}

// TestServeAllocs holds Provider.Serve to its allocation budget on each
// request path.
func TestServeAllocs(t *testing.T) {
	p := NewProvider("test-ssp", "loopback://ssp")
	p.MustRegister(echoService())
	for _, c := range serveAllocs {
		t.Run(c.name, func(t *testing.T) {
			var req, out bytes.Buffer
			c.call.WireEnvelope().AppendTo(&req)
			allocbudget.Check(t, c.allocs, func() {
				out.Reset()
				if err := p.Serve(context.Background(), req.Bytes(), &out); err != nil {
					t.Fatalf("%v: %s", err, out.Bytes())
				}
			})
			if !bytes.Contains(out.Bytes(), []byte(c.wantOut)) {
				t.Fatalf("answer %s lacks %s", out.Bytes(), c.wantOut)
			}
		})
	}
}
