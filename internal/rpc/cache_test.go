package rpc

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

// cacheFixture wires the middleware around a counting handler.
func cacheFixture(c *ResponseCache, cacheable func(string) bool) (core.HandlerFunc, *int) {
	calls := 0
	handler := func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
		calls++
		return []soap.Value{soap.Str("out", "result-"+args.String("q"))}, nil
	}
	return c.Middleware(cacheable)(handler), &calls
}

func inquiryCtx(op string) *core.Context {
	return &core.Context{Operation: op, ServiceNS: "urn:test"}
}

func TestResponseCacheHitSkipsHandler(t *testing.T) {
	c := NewResponseCache(time.Minute, 16)
	h, calls := cacheFixture(c, OpPrefixes("find", "get"))
	args := soap.Args{soap.Str("q", "a")}

	for i := 0; i < 3; i++ {
		vals, err := h(inquiryCtx("findService"), args)
		if err != nil {
			t.Fatal(err)
		}
		if vals[0].Text != "result-a" {
			t.Fatalf("vals = %+v", vals)
		}
	}
	if *calls != 1 {
		t.Fatalf("handler ran %d times, want 1 (cache must short-circuit)", *calls)
	}
	// Different parameters are a different entry.
	if _, err := h(inquiryCtx("findService"), soap.Args{soap.Str("q", "b")}); err != nil {
		t.Fatal(err)
	}
	if *calls != 2 {
		t.Fatalf("handler ran %d times, want 2", *calls)
	}
	// Different operation, same params: also a different entry.
	if _, err := h(inquiryCtx("getService"), args); err != nil {
		t.Fatal(err)
	}
	if *calls != 3 {
		t.Fatalf("handler ran %d times, want 3", *calls)
	}
	hits, misses, entries := c.Stats()
	if hits != 2 || misses != 3 || entries != 3 {
		t.Fatalf("stats = %d hits, %d misses, %d entries", hits, misses, entries)
	}
}

func TestResponseCacheParamOrderCanonicalised(t *testing.T) {
	c := NewResponseCache(time.Minute, 16)
	h, calls := cacheFixture(c, OpPrefixes("find"))
	ab := soap.Args{soap.Str("a", "1"), soap.Str("b", "2")}
	ba := soap.Args{soap.Str("b", "2"), soap.Str("a", "1")}
	if _, err := h(inquiryCtx("find"), ab); err != nil {
		t.Fatal(err)
	}
	if _, err := h(inquiryCtx("find"), ba); err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatalf("handler ran %d times: parameter order must not defeat the cache", *calls)
	}
}

func TestResponseCacheTTLExpiry(t *testing.T) {
	c := NewResponseCache(10*time.Second, 16)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	h, calls := cacheFixture(c, OpPrefixes("find"))
	args := soap.Args{soap.Str("q", "x")}

	if _, err := h(inquiryCtx("find"), args); err != nil {
		t.Fatal(err)
	}
	now = now.Add(9 * time.Second)
	if _, err := h(inquiryCtx("find"), args); err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatalf("handler ran %d times before TTL, want 1", *calls)
	}
	now = now.Add(2 * time.Second) // past the 10s TTL
	if _, err := h(inquiryCtx("find"), args); err != nil {
		t.Fatal(err)
	}
	if *calls != 2 {
		t.Fatalf("handler ran %d times after TTL, want 2 (entry must expire)", *calls)
	}
}

func TestResponseCacheSizeEviction(t *testing.T) {
	c := NewResponseCache(time.Minute, 2)
	h, calls := cacheFixture(c, OpPrefixes("find"))
	q := func(s string) soap.Args { return soap.Args{soap.Str("q", s)} }

	// Fill: a, b. Touch a so b is the LRU. Insert c: b must be evicted.
	for _, s := range []string{"a", "b", "a", "c"} {
		if _, err := h(inquiryCtx("find"), q(s)); err != nil {
			t.Fatal(err)
		}
	}
	if *calls != 3 {
		t.Fatalf("handler ran %d times, want 3", *calls)
	}
	if _, err := h(inquiryCtx("find"), q("a")); err != nil { // still cached
		t.Fatal(err)
	}
	if *calls != 3 {
		t.Fatal("most-recently-used entry was evicted")
	}
	if _, err := h(inquiryCtx("find"), q("b")); err != nil { // evicted
		t.Fatal(err)
	}
	if *calls != 4 {
		t.Fatalf("handler ran %d times, want 4 (LRU entry must have been evicted)", *calls)
	}
	if _, _, entries := c.Stats(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
}

func TestResponseCacheWriteFlushes(t *testing.T) {
	c := NewResponseCache(time.Minute, 16)
	h, calls := cacheFixture(c, OpPrefixes("find"))
	args := soap.Args{soap.Str("q", "x")}
	if _, err := h(inquiryCtx("find"), args); err != nil {
		t.Fatal(err)
	}
	if _, err := h(inquiryCtx("find"), args); err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatal("warm-up failed")
	}
	// A successful write op flushes the derived inquiry results.
	if _, err := h(inquiryCtx("saveService"), soap.Args{soap.Str("name", "n")}); err != nil {
		t.Fatal(err)
	}
	if _, err := h(inquiryCtx("find"), args); err != nil {
		t.Fatal(err)
	}
	if *calls != 3 {
		t.Fatalf("handler ran %d times, want 3 (write must flush cached inquiries)", *calls)
	}
}

func TestResponseCacheDetachesXML(t *testing.T) {
	c := NewResponseCache(time.Minute, 16)
	shared := xmlutil.New("list").AddText("item", "one")
	handler := func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
		return []soap.Value{soap.XMLDoc("doc", shared)}, nil
	}
	h := c.Middleware(OpPrefixes("find"))(handler)
	if _, err := h(inquiryCtx("find"), nil); err != nil {
		t.Fatal(err)
	}
	// Mutate the handler's tree after it was cached: the cached copy must be
	// unaffected (it would otherwise alias pooled request arenas too).
	shared.Children[0].Text = "corrupted"
	vals, err := h(inquiryCtx("find"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := vals[0].XML.ChildText("item"); got != "one" {
		t.Fatalf("cached XML = %q, want detached copy %q", got, "one")
	}
}

// TestResponseCacheEndToEnd drives the middleware through a real provider
// dispatch to prove a cache hit skips the full handler path.
func TestResponseCacheEndToEnd(t *testing.T) {
	calls := 0
	def := &Def{
		Name: "Echo", NS: "urn:test:cache",
		Ops: []Op{{
			Name: "getAnswer",
			In:   StrParams("q"),
			Out:  []wsdl.Param{Str("answer")},
			Handle: func(ctx *core.Context, in Args) ([]interface{}, error) {
				calls++
				return Ret("answer-" + in.Str("q")), nil
			},
		}},
	}
	svc := def.MustBuild()
	cache := NewResponseCache(time.Minute, 8)
	svc.Use(cache.Middleware(OpPrefixes("get")))
	p := core.NewProvider("ssp", "loopback://x")
	p.MustRegister(svc)
	cl := core.NewClient(&soap.LoopbackTransport{Handler: p.Dispatch}, "x", def.Interface())
	for i := 0; i < 3; i++ {
		got, err := cl.CallText("getAnswer", soap.Str("q", "42"))
		if err != nil {
			t.Fatal(err)
		}
		if got != "answer-42" {
			t.Fatalf("answer = %q", got)
		}
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times over 3 calls, want 1", calls)
	}
	hits, _, _ := cache.Stats()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

// TestHealthzReportsCacheStats pins the /healthz wire format for
// registered response caches: hit/miss/entry counters must be reachable
// over HTTP next to the decode counters.
func TestHealthzReportsCacheStats(t *testing.T) {
	calls := 0
	def := &Def{
		Name: "Echo", NS: "urn:test:cache:healthz",
		Ops: []Op{{
			Name: "getAnswer",
			In:   StrParams("q"),
			Out:  []wsdl.Param{Str("answer")},
			Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
				calls++
				return Ret("answer-" + in.Str("q")), nil
			},
		}},
	}
	svc := def.MustBuild()
	cache := NewResponseCache(time.Minute, 8)
	svc.Use(cache.Middleware(OpPrefixes("get")))

	srv := NewServer("test", "placeholder")
	srv.Stats().RegisterCache("echo", cache)
	srv.Provider("").MustRegister(svc)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.SetBaseURL(hs.URL)

	cl := core.NewClient(srv.Transport(), hs.URL+"/Echo", def.Interface())
	for i := 0; i < 3; i++ {
		if _, err := cl.CallText("getAnswer", soap.Str("q", "42")); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1", calls)
	}

	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
		Caches []struct {
			Name    string `json:"name"`
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
			Entries int    `json:"entries"`
		} `json:"caches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || len(doc.Caches) != 1 {
		t.Fatalf("healthz = %+v", doc)
	}
	c := doc.Caches[0]
	if c.Name != "echo" || c.Hits != 2 || c.Misses != 1 || c.Entries != 1 {
		t.Fatalf("healthz cache line = %+v, want echo 2/1/1", c)
	}
}

// TestResponseCacheConcurrency hammers one cache from many goroutines
// mixing cacheable reads (hits, misses, TTL refreshes), writes (which
// flush), explicit Flushes, and Stats polling. Run under -race (the CI
// race job does) this pins the cache's internal locking; the functional
// assertion is that every call still returns the right value and the
// counters stay coherent.
func TestResponseCacheConcurrency(t *testing.T) {
	handled := make(chan struct{}, 1<<16)
	def := &Def{
		Name: "Echo", NS: "urn:test:cache:conc",
		Ops: []Op{
			{
				Name: "getValue",
				In:   StrParams("k"),
				Out:  []wsdl.Param{Str("v")},
				Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
					handled <- struct{}{}
					return Ret("v-" + in.Str("k")), nil
				},
			},
			{
				Name: "putValue",
				In:   StrParams("k"),
				Out:  []wsdl.Param{Bool("ok")},
				Handle: func(_ *core.Context, _ Args) ([]interface{}, error) {
					return Ret(true), nil
				},
			},
		},
	}
	svc := def.MustBuild()
	cache := NewResponseCache(50*time.Millisecond, 16) // small: forces eviction under load
	svc.Use(cache.Middleware(OpPrefixes("get")))
	p := core.NewProvider("ssp", "loopback://conc")
	p.MustRegister(svc)
	tr := &soap.LoopbackTransport{Handler: p.Dispatch}

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := core.NewClient(tr, "x", def.Interface())
			for i := 0; i < iters; i++ {
				k := strconv.Itoa((g + i) % 24) // overlap keys across goroutines
				switch i % 5 {
				case 4: // a write: passes through and flushes
					if _, err := cl.CallText("putValue", soap.Str("k", k)); err != nil {
						errs <- err
						return
					}
				case 3:
					if g == 0 {
						cache.Flush()
					}
					cache.Stats()
				default:
					got, err := cl.CallText("getValue", soap.Str("k", k))
					if err != nil {
						errs <- err
						return
					}
					if got != "v-"+k {
						errs <- fmt.Errorf("getValue(%s) = %q", k, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses, entries := cache.Stats()
	if entries > 16 {
		t.Fatalf("cache grew past its bound: %d entries", entries)
	}
	if int(hits)+int(misses) == 0 {
		t.Fatal("no cacheable traffic observed")
	}
	if len(handled) == 0 {
		t.Fatal("handler never ran")
	}
}
