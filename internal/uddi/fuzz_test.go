package uddi

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/soap"
	"repro/internal/xmlutil"
)

// bodyTransport answers every round trip with a fixed response body.
type bodyTransport struct{ body []byte }

func (t *bodyTransport) RoundTripRawCtx(_ context.Context, _, _ string, _ *soap.Envelope, resp *bytes.Buffer) error {
	resp.Write(t.body)
	return nil
}

// recordingTransport keeps a copy of the last response body it relayed.
type recordingTransport struct {
	soap.Transport
	last []byte
}

func (t *recordingTransport) RoundTripRawCtx(ctx context.Context, endpoint, action string, req *soap.Envelope, resp *bytes.Buffer) error {
	start := resp.Len()
	err := t.Transport.RoundTripRawCtx(ctx, endpoint, action, req, resp)
	t.last = bytes.Clone(resp.Bytes()[start:])
	return err
}

// decodeInPlace is the client path: CallXML decoding a serviceList inside
// the pooled response arena.
func decodeInPlace(c *core.Client, tr *bodyTransport, body []byte) ([]*BusinessService, error) {
	tr.body = body
	var out []*BusinessService
	err := c.CallXML(context.Background(), "findServiceByTModel", func(el *xmlutil.Element) error {
		out = ServicesFromList(el)
		return nil
	}, soap.Str("tModelKey", "uuid:fuzz"))
	return out, err
}

// decodeRetained is the oracle: the same body parsed into a caller-owned
// tree, which no later parse can touch.
func decodeRetained(body []byte) ([]*BusinessService, error) {
	env, err := soap.ParseEnvelopeBytes(body)
	if err != nil {
		return nil, err
	}
	resp, err := soap.ParseResponse(env)
	if err != nil {
		return nil, err
	}
	v, ok := resp.Return("")
	if !ok || v.XML == nil {
		return nil, fmt.Errorf("no XML payload")
	}
	return ServicesFromList(v.XML), nil
}

// seedResponses returns real response bodies of the registry service: a
// findServiceByTModel answer of n services, an empty one, and a fault.
func seedResponses(t testing.TB, n int) [][]byte {
	r := NewRegistry()
	p := core.NewProvider("registry-ssp", "loopback://uddi")
	p.MustRegister(NewService(r))
	rec := &recordingTransport{Transport: p.Loopback()}
	cl := NewClient(rec, "loopback://uddi/UDDIRegistry")
	bk, err := cl.SaveBusiness("SDSC", "HotPage group")
	if err != nil {
		t.Fatal(err)
	}
	tmk, err := cl.SaveTModel("gce:BatchScriptGenerator", "common interface", "http://x/bsg.wsdl")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := cl.SaveService(bk, fmt.Sprintf("BSG %d", i), DescribeCapabilities("", []string{"PBS", "LSF"}),
			fmt.Sprintf("http://host%d.example.edu/soap/bsg?a=1&b=<%d>", i, i), []string{tmk}); err != nil {
			t.Fatal(err)
		}
	}
	var out [][]byte
	if _, err := cl.FindServiceByTModel(tmk); err != nil {
		t.Fatal(err)
	}
	out = append(out, rec.last)
	if _, err := cl.FindServiceByTModel("uuid:none"); err != nil {
		t.Fatal(err)
	}
	out = append(out, rec.last)
	if _, err := cl.GetServiceDetail("uuid:ghost"); err == nil {
		t.Fatal("unknown service key answered without a fault")
	}
	return append(out, rec.last)
}

// FuzzXMLReturnDecode checks in-place decoding against a retained tree on
// arbitrary response bodies: CallXML plus ServicesFromList must give what
// ServicesFromList gives over a caller-owned parse of the same body, or
// both must fail. Each input runs back to back with a real answer through
// one client, and its first result is compared only after both later
// calls have reused the arena and the message buffer.
func FuzzXMLReturnDecode(f *testing.F) {
	seeds := seedResponses(f, 3)
	for _, body := range seeds {
		f.Add(body)
	}
	other := seedResponses(f, 5)[0]
	tr := &bodyTransport{}
	c := core.NewClient(tr, "fuzz://uddi", Contract())
	wantOther, err := decodeRetained(other)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := decodeRetained(body)
		first, firstErr := decodeInPlace(c, tr, body)
		between, betweenErr := decodeInPlace(c, tr, other)
		again, againErr := decodeInPlace(c, tr, body)
		if betweenErr != nil || !reflect.DeepEqual(between, wantOther) {
			t.Fatalf("real answer after the input decoded to %+v, %v", values(between), betweenErr)
		}
		for _, got := range []struct {
			out []*BusinessService
			err error
		}{{first, firstErr}, {again, againErr}} {
			if (got.err == nil) != (wantErr == nil) {
				t.Fatalf("in place err %v, retained err %v", got.err, wantErr)
			}
			if !reflect.DeepEqual(got.out, want) {
				t.Fatalf("in place %+v, retained %+v", values(got.out), values(want))
			}
		}
	})
}

// values dereferences services for failure messages.
func values(services []*BusinessService) []BusinessService {
	out := make([]BusinessService, len(services))
	for i, s := range services {
		out[i] = *s
	}
	return out
}

// containsFoldLower is containsFold's oracle: both strings lowered, then
// a plain substring search.
func containsFoldLower(haystack, needle string) bool {
	return strings.Contains(strings.ToLower(haystack), strings.ToLower(needle))
}

// FuzzContainsFold requires containsFold to agree with its oracle on any
// pair of strings: ASCII ones, which it matches in place, and the rest,
// which it lowers. The seeds include letters that lower to ASCII from
// outside it and invalid UTF-8.
func FuzzContainsFold(f *testing.F) {
	for _, seed := range [][2]string{
		{"Batch queue Q01", "q01"},
		{"schedulers: PBS,GRD", "SCHEDULERS: pbs"},
		{"", ""},
		{"abc", ""},
		{"", "a"},
		{"ab", "abc"},
		{"[@`{", "{"},
		{"\u212aelvin", "kelvin"},
		{"\u0130stanbul", "i"},
		{"cafÉ", "CAFé"},
		{"\xff\xfe", "\xff"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, haystack, needle string) {
		if got, want := containsFold(haystack, needle), containsFoldLower(haystack, needle); got != want {
			t.Fatalf("containsFold(%q, %q) = %v, want %v", haystack, needle, got, want)
		}
	})
}

// indexFoldASCIIRef lowers only the ASCII bytes of s, which keeps every
// byte where it was, and then searches with strings.Index.
func indexFoldASCIIRef(s, lower string) int {
	b := []byte(s)
	for i, c := range b {
		b[i] = lowerASCII(c)
	}
	return strings.Index(string(b), lower)
}

// parseCapabilitiesLowering is ParseCapabilities as it was when it
// searched a fully lowered copy of the description. On ASCII input lowering
// keeps every byte where it was, so there it is the reference.
func parseCapabilitiesLowering(description string) []string {
	idx := strings.Index(strings.ToLower(description), CapabilityPrefix)
	if idx < 0 {
		return nil
	}
	rest := description[idx+len(CapabilityPrefix):]
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[:nl]
	}
	var out []string
	for _, tok := range strings.Split(rest, ",") {
		tok = strings.TrimSpace(tok)
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// FuzzParseCapabilities requires ParseCapabilities to find the convention
// where the ASCII-lowering reference finds it, on any description, and to
// return what the lowering implementation returned on ASCII ones. The
// seeds include letters whose lower case is longer or shorter in UTF-8,
// which moved the old implementation's index off the description.
func FuzzParseCapabilities(f *testing.F) {
	for _, seed := range []string{
		"schedulers: PBS,GRD",
		"Gateway script service. SCHEDULERS: LSF, NQS",
		"line one\nSchedulers: NQS, LSF\nline three",
		"no convention here",
		"schedulers:",
		"ȺȺȺ schedulers: PBS,LSF",
		"Ⱥ schedulers:",
		"İ schedulers: PBS",
		"K schedulers: GRD",
		"ſchedulers: PBS",
		"\xff schedulers: PBS",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, description string) {
		if got, want := indexFoldASCII(description, CapabilityPrefix), indexFoldASCIIRef(description, CapabilityPrefix); got != want {
			t.Fatalf("indexFoldASCII(%q) = %d, want %d", description, got, want)
		}
		got := ParseCapabilities(description)
		if isASCII(description) {
			if want := parseCapabilitiesLowering(description); !reflect.DeepEqual(got, want) {
				t.Fatalf("ParseCapabilities(%q) = %q, want %q", description, got, want)
			}
		}
	})
}
