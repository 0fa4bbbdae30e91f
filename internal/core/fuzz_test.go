package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/soap"
	"repro/internal/xmlutil"
)

// answer flattens what a response decode produced into comparable
// strings: the error's text and whether it is a *soap.Fault, the
// operation, the returns, and a fault's code, string, actor and rendered
// detail. XML-valued returns are rendered when withXML is set and only
// marked otherwise, for a response whose arena was released.
func answer(resp *soap.Response, err error, withXML bool) []string {
	var out []string
	if err != nil {
		_, isFault := err.(*soap.Fault)
		out = append(out, fmt.Sprintf("error:%s|fault=%v", err, isFault))
	}
	if resp == nil {
		return out
	}
	if f := resp.Fault; f != nil {
		out = append(out, fmt.Sprintf("fault:%s|%s|%s", f.Code, f.String, f.Actor))
		for _, d := range f.Detail {
			out = append(out, "detail:"+d.Render())
		}
		return out
	}
	var value func(v soap.Value) string
	value = func(v soap.Value) string {
		s := fmt.Sprintf("%s|%s|%q", v.Name, v.Type, v.Text)
		switch {
		case v.XML != nil && withXML:
			s += "|xml:" + v.XML.Render()
		case v.XML != nil:
			s += "|xml"
		}
		if v.Items != nil {
			s += "|items:"
			for _, it := range v.Items {
				s += "(" + value(it) + ")"
			}
		}
		return s
	}
	out = append(out, "op:"+resp.ServiceNS+"|"+resp.Method)
	for _, v := range resp.Returns {
		out = append(out, value(v))
	}
	return out
}

// treeAnswer is the oracle: the body parsed into a caller-owned tree by
// ParseEnvelopeBytes and read by ParseResponse.
func treeAnswer(body []byte, withXML bool) []string {
	env, err := soap.ParseEnvelopeBytes(body)
	if err != nil {
		return answer(nil, err, withXML)
	}
	resp, err := soap.ParseResponse(env)
	return answer(resp, err, withXML)
}

// FuzzResponseDecode checks Client.Call's one response decoder against the
// tree decode on arbitrary response bodies: the same returns (XML compared
// as rendered), the same fault, or the same error text, a *soap.Fault
// exactly when the tree decode's is, so retry and breaker classification
// cannot tell them apart. Each input runs back to back with a real answer
// through one client. Its XML returns are rendered before release; the
// rest of its result is compared again only after the real answer has
// reused the arena and the message buffer, which pins that Returns is the
// caller's own copy and that fault details are detached.
func FuzzResponseDecode(f *testing.F) {
	golden, err := filepath.Glob("../rpc/testdata/golden/*.resp.xml")
	if err != nil || len(golden) == 0 {
		f.Fatalf("golden responses: %v (%d found)", err, len(golden))
	}
	for _, path := range golden {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	const env = `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">`
	for _, seed := range []string{
		(&soap.Response{Fault: soap.NewPortalError("Echo", soap.ErrCodeResourceFull, "disk full").Fault()}).WireEnvelope().Render(),
		(&soap.Response{Fault: &soap.Fault{Code: soap.FaultClient, String: "two", Actor: "urn:actor",
			Detail: []*xmlutil.Element{xmlutil.NewText("first", "1"), xmlutil.New("second").AddText("x", "2")}}}).WireEnvelope().Render(),
		env + `<e:Header><h e:mustUnderstand="1">x</h></e:Header><e:Body><m:sayResponse xmlns:m="urn:test:echo">` +
			`<echo>hi</echo></m:sayResponse></e:Body></e:Envelope>`,
		env + `<e:Body><m:sayResponse xmlns:m="urn:test:echo"><echo>a<!-- c -->b<![CDATA[<&>]]>c</echo>` +
			`</m:sayResponse></e:Body></e:Envelope>`,
		env + `<e:Body/></e:Envelope>`,
		`<m:sayResponse xmlns:m="urn:test:echo"><echo>hi</echo></m:sayResponse>`,
	} {
		f.Add([]byte(seed))
	}
	// The real answer carves more elements than any seed, so it overwrites
	// every arena slot a seed's decode used.
	job := xmlutil.New("job").SetAttr("id", "7")
	for i := 0; i < 64; i++ {
		job.AddText(fmt.Sprintf("step%d", i), "queued")
	}
	real := []byte((&soap.Response{ServiceNS: "urn:test:echo", Method: "say", Returns: []soap.Value{
		soap.XMLDoc("doc", job),
		soap.StrArray("nodes", []string{"n0", "n1", "n2"}),
		soap.Str("echo", "real"),
	}}).WireEnvelope().Render())
	wantReal := treeAnswer(real, true)
	tr := &bodyTransport{}
	c := NewClient(tr, "fixed://echo", echoContract())
	call := func(body []byte) (*soap.Response, []string, error) {
		tr.body = body
		resp, release, err := c.Call(context.Background(), "say", soap.Str("msg", "x"))
		got := answer(resp, err, true)
		release()
		return resp, got, err
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantFlat := treeAnswer(body, true), treeAnswer(body, false)
		first, firstGot, firstErr := call(body)
		if !reflect.DeepEqual(firstGot, want) {
			t.Fatalf("Client.Call decoded %q\n  as %q\ntree %q", body, firstGot, want)
		}
		if _, between, _ := call(real); !reflect.DeepEqual(between, wantReal) {
			t.Fatalf("real answer after the input decoded as %q, want %q", between, wantReal)
		}
		if after := answer(first, firstErr, false); !reflect.DeepEqual(after, wantFlat) {
			t.Fatalf("first result of %q after reuse reads %q, want %q", body, after, wantFlat)
		}
		if _, again, _ := call(body); !reflect.DeepEqual(again, want) {
			t.Fatalf("Client.Call decoded %q the second time as %q, tree %q", body, again, want)
		}
	})
}
