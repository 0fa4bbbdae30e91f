package srbws

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/soap"
	"repro/internal/srb"
)

func newFixture(t *testing.T) (*srb.Broker, *Client, string) {
	t.Helper()
	b := srb.NewBroker("sdsc")
	home := b.CreateUser("mock")
	p := core.NewProvider("srb-ssp", "loopback://srb")
	p.MustRegister(NewService(b, "mock"))
	cl := NewClient(p.Loopback(), "loopback://srb/SRBService")
	return b, cl, home
}

func TestPutGetLsCat(t *testing.T) {
	_, cl, home := newFixture(t)
	content := "line one\nline two\n  indented with trailing space \n"
	if err := cl.Put(home+"/data.txt", content, ""); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(home + "/data.txt")
	if err != nil || got != content {
		t.Errorf("Get = %q, %v (whitespace must survive the wire)", got, err)
	}
	got, err = cl.Cat(home + "/data.txt")
	if err != nil || got != content {
		t.Errorf("Cat = %q, %v", got, err)
	}
	entries, err := cl.Ls(home)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "data.txt" || entries[0].Size != len(content) {
		t.Errorf("entries = %+v", entries)
	}
	if entries[0].IsCollection || entries[0].Resource != "default-disk" || entries[0].Owner != "mock" {
		t.Errorf("entry meta = %+v", entries[0])
	}
}

func TestErrorMapping(t *testing.T) {
	b, cl, home := newFixture(t)
	// NoSuchResource.
	_, err := cl.Get(home + "/missing")
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeNoSuchResource {
		t.Errorf("missing file err = %v", err)
	}
	// AccessDenied: another user's object read through the service.
	b.CreateUser("kurt")
	other := srb.NewBroker("x") // silence unused warning pattern
	_ = other
	if err := b.Sput("kurt", "/sdsc/home/kurt/private", "secret", ""); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Get("/sdsc/home/kurt/private")
	if pe := soap.AsPortalError(err); pe == nil || pe.Code != soap.ErrCodeAccessDenied {
		t.Errorf("denied err = %v", err)
	}
	// ResourceFull — the paper's canonical implementation error, relayed
	// through the portal-standard error detail.
	b.AddResource(srb.Resource{Name: "tiny", Capacity: 4})
	err = cl.Put(home+"/big", "123456789", "tiny")
	if pe := soap.AsPortalError(err); pe == nil || pe.Code != soap.ErrCodeResourceFull {
		t.Errorf("full err = %v", err)
	}
}

func TestAuthRequired(t *testing.T) {
	b := srb.NewBroker("sdsc")
	b.CreateUser("mock")
	p := core.NewProvider("srb-ssp", "loopback://srb")
	p.MustRegister(NewService(b, "")) // authentication required
	cl := NewClient(p.Loopback(), "loopback://srb/SRBService")
	_, err := cl.Ls("/sdsc/home/mock")
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeAuthFailed {
		t.Errorf("err = %v", err)
	}
}

func TestXMLCall(t *testing.T) {
	_, cl, home := newFixture(t)
	results, err := cl.XMLCall([]Command{
		{Name: "mkdir", Args: []string{home + "/runs"}},
		{Name: "put", Args: []string{home + "/runs/a.out", "output data"}},
		{Name: "ls", Args: []string{home + "/runs"}},
		{Name: "cat", Args: []string{home + "/runs/a.out"}},
		{Name: "get", Args: []string{home + "/runs/missing"}}, // fails in-band
		{Name: "rm", Args: []string{home + "/runs/a.out"}},
		{Name: "bogus"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("results = %d", len(results))
	}
	for i, wantOK := range []bool{true, true, true, true, false, true, false} {
		if results[i].OK != wantOK {
			t.Errorf("result %d (%s): ok=%v err=%q", i, results[i].Command, results[i].OK, results[i].Error)
		}
	}
	if len(results[2].Entries) != 1 || results[2].Entries[0].Name != "a.out" {
		t.Errorf("ls entries = %+v", results[2].Entries)
	}
	if results[3].Data != "output data" {
		t.Errorf("cat data = %q", results[3].Data)
	}
	if !strings.Contains(results[6].Error, "unknown SRB command") {
		t.Errorf("bogus error = %q", results[6].Error)
	}
}

func TestXMLCallValidation(t *testing.T) {
	_, cl, _ := newFixture(t)
	// Missing args fail per-command, not as a fault.
	results, err := cl.XMLCall([]Command{{Name: "ls"}, {Name: "put", Args: []string{"onlypath"}}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].OK || results[1].OK {
		t.Errorf("underspecified commands succeeded: %+v", results)
	}
}

func TestChunkedTransfer(t *testing.T) {
	_, cl, home := newFixture(t)
	data := strings.Repeat("0123456789abcdef", 1000) // 16 KB
	if err := cl.PutChunked(home+"/chunked.bin", data, "", 1024); err != nil {
		t.Fatal(err)
	}
	size, err := cl.Stat(home + "/chunked.bin")
	if err != nil || size != len(data) {
		t.Errorf("stat = %d, %v", size, err)
	}
	got, err := cl.GetChunked(home+"/chunked.bin", 1024)
	if err != nil || got != data {
		t.Errorf("chunked round trip mismatch: %d bytes vs %d, %v", len(got), len(data), err)
	}
	// Chunked and string-streamed transfers are interchangeable.
	whole, err := cl.Get(home + "/chunked.bin")
	if err != nil || whole != data {
		t.Errorf("whole get after chunked put: %d bytes, %v", len(whole), err)
	}
	// Odd chunk size not dividing the length.
	got, err = cl.GetChunked(home+"/chunked.bin", 999)
	if err != nil || got != data {
		t.Errorf("odd chunk size mismatch: %v", err)
	}
}

func TestChunkedEdgeCases(t *testing.T) {
	_, cl, home := newFixture(t)
	if err := cl.PutChunked(home+"/empty", "", "", 64); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetChunked(home+"/empty", 64)
	if err != nil || got != "" {
		t.Errorf("empty file = %q, %v", got, err)
	}
	if _, err := cl.GetChunked(home+"/empty", 0); err == nil {
		t.Error("zero chunk size accepted")
	}
	if err := cl.PutChunked(home+"/x", "data", "", -1); err == nil {
		t.Error("negative chunk size accepted")
	}
	// Out-of-range chunk read.
	_ = cl.Put(home+"/f", "12345", "")
	_, err = cl.c.CallText("getChunk", soap.Str("path", home+"/f"), soap.Int("offset", 99), soap.Int("size", 10))
	if soap.AsPortalError(err) == nil {
		t.Errorf("bad range err = %v", err)
	}
	// putChunk with mismatched offset.
	_, err = cl.c.CallText("putChunk", soap.Str("path", home+"/f"), soap.Int("offset", 3),
		soap.Str("data", "xx"), soap.Str("resource", ""))
	if soap.AsPortalError(err) == nil {
		t.Errorf("offset mismatch err = %v", err)
	}
}

func TestAuthenticatedPrincipalUsed(t *testing.T) {
	// When the SPP sets a verified principal, the service acts as that
	// user, not the default.
	b := srb.NewBroker("sdsc")
	b.CreateUser("mock")
	b.CreateUser("kurt")
	_ = b.Sput("kurt", "/sdsc/home/kurt/own.txt", "kurt data", "")
	p := core.NewProvider("srb-ssp", "loopback://srb")
	p.Use(func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			ctx.Principal = "kurt"
			return next(ctx, args)
		}
	})
	p.MustRegister(NewService(b, "mock"))
	cl := NewClient(p.Loopback(), "loopback://srb/SRBService")
	got, err := cl.Get("/sdsc/home/kurt/own.txt")
	if err != nil || got != "kurt data" {
		t.Errorf("as kurt = %q, %v", got, err)
	}
	// And mock's home is now off-limits.
	if _, err := cl.Ls("/sdsc/home/mock"); soap.AsPortalError(err) == nil {
		t.Errorf("err = %v", err)
	}
}

// TestPutInvalidUTF8Rejected pins the invalid-UTF-8 contract end to end:
// the client's escaper copies non-ASCII bytes verbatim, so a payload that
// is not UTF-8 reaches the server's validator and earns a Client fault
// whether or not it also holds bytes that need escaping. Nothing may be
// stored, neither over the in-process binding nor over HTTP.
func TestPutInvalidUTF8Rejected(t *testing.T) {
	b, loop, home := newFixture(t)
	p := core.NewProvider("srb-ssp", "")
	p.MustRegister(NewService(b, "mock"))
	ts := httptest.NewServer(p)
	defer ts.Close()
	clients := map[string]*Client{
		"loopback": loop,
		"http":     NewClient(&soap.HTTPTransport{}, ts.URL+"/SRBService"),
	}
	for name, cl := range clients {
		for i, data := range []string{"a\xffb", "a\xffb<c"} {
			path := fmt.Sprintf("%s/%s-%d", home, name, i)
			err := cl.Put(path, data, "")
			if f := soap.AsFault(err); f == nil || f.Code != soap.FaultClient {
				t.Errorf("%s: Put(%q) = %v, want a Client fault", name, data, err)
			}
			if got, err := b.Sget("mock", path); err == nil {
				t.Errorf("%s: Put(%q) stored %q", name, data, got)
			}
		}
	}
}

// TestPutCarriageReturnsSurvive: a file with CRLF and bare CR line ends
// is stored and read back byte for byte, over the in-process binding and
// over HTTP. A raw CR in element text would be normalised to a newline by
// the receiver's parser, so the writer sends it as &#13;.
func TestPutCarriageReturnsSurvive(t *testing.T) {
	b, loop, home := newFixture(t)
	p := core.NewProvider("srb-ssp", "")
	p.MustRegister(NewService(b, "mock"))
	ts := httptest.NewServer(p)
	defer ts.Close()
	clients := map[string]*Client{
		"loopback": loop,
		"http":     NewClient(&soap.HTTPTransport{}, ts.URL+"/SRBService"),
	}
	const data = "a\r\nb\rc"
	for name, cl := range clients {
		path := home + "/crlf-" + name
		if err := cl.Put(path, data, ""); err != nil {
			t.Fatalf("%s: Put: %v", name, err)
		}
		if stored, err := b.Sget("mock", path); err != nil || stored != data {
			t.Errorf("%s: stored %q, %v; want %q", name, stored, err, data)
		}
		if got, err := cl.Get(path); err != nil || got != data {
			t.Errorf("%s: Get = %q, %v; want %q", name, got, err, data)
		}
	}
}

// TestInPlaceResultsSurviveReuse keeps one Ls and one XMLCall answer, then
// makes 60 more calls with different answers through the same client,
// which recycles the pooled response arena and message buffer. The kept
// answers must still equal the broker's: decoders copy only strings out of
// the arena.
func TestInPlaceResultsSurviveReuse(t *testing.T) {
	b, cl, home := newFixture(t)
	for i := 0; i < 8; i++ {
		if err := b.Sput("mock", fmt.Sprintf("%s/f%d.dat", home, i), strings.Repeat("<&>", i+1), ""); err != nil {
			t.Fatal(err)
		}
	}
	keptLs, err := cl.Ls(home)
	if err != nil || len(keptLs) != 8 {
		t.Fatalf("kept ls = %+v, %v", keptLs, err)
	}
	keptCall, err := cl.XMLCall([]Command{
		{Name: "cat", Args: []string{home + "/f2.dat"}},
		{Name: "ls", Args: []string{home}},
		{Name: "get", Args: []string{home + "/missing"}},
	})
	if err != nil || len(keptCall) != 3 {
		t.Fatalf("kept xmlCall = %+v, %v", keptCall, err)
	}
	for i := 0; i < 60; i++ {
		path := fmt.Sprintf("%s/f%d.dat", home, i%8)
		if i%2 == 0 {
			_, err = cl.Ls(home)
		} else {
			_, err = cl.XMLCall([]Command{
				{Name: "put", Args: []string{fmt.Sprintf("%s/g%d.dat", home, i), strings.Repeat("y", i)}},
				{Name: "cat", Args: []string{path}},
			})
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	entries, err := b.Sls("mock", home)
	if err != nil {
		t.Fatal(err)
	}
	wantLs := entries[:8] // the broker lists the kept files before the g*.dat added since
	if !reflect.DeepEqual(keptLs, wantLs) {
		t.Errorf("kept ls changed:\n got %+v\nwant %+v", keptLs, wantLs)
	}
	if !reflect.DeepEqual(keptCall[1].Entries, wantLs) {
		t.Errorf("kept xmlCall ls changed:\n got %+v\nwant %+v", keptCall[1].Entries, wantLs)
	}
	_, missing := b.Sget("mock", home+"/missing")
	wantCall := []CommandResult{
		{Index: 0, Command: "cat", OK: true, Data: "<&><&><&>"},
		{Index: 1, Command: "ls", OK: true, Entries: keptCall[1].Entries},
		{Index: 2, Command: "get", Error: missing.Error()},
	}
	if !reflect.DeepEqual(keptCall, wantCall) {
		t.Errorf("kept xmlCall changed:\n got %+v\nwant %+v", keptCall, wantCall)
	}
}
