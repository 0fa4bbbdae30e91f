package srbws

import (
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
	cl := NewClient(&soap.LoopbackTransport{Handler: p.Dispatch}, "loopback://srb/SRBService")
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
	cl := NewClient(&soap.LoopbackTransport{Handler: p.Dispatch}, "loopback://srb/SRBService")
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
	cl := NewClient(&soap.LoopbackTransport{Handler: p.Dispatch}, "loopback://srb/SRBService")
	got, err := cl.Get("/sdsc/home/kurt/own.txt")
	if err != nil || got != "kurt data" {
		t.Errorf("as kurt = %q, %v", got, err)
	}
	// And mock's home is now off-limits.
	if _, err := cl.Ls("/sdsc/home/mock"); soap.AsPortalError(err) == nil {
		t.Errorf("err = %v", err)
	}
}
