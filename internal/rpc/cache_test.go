package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
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

// cacheProvider serves handler for every operation of a small contract
// behind mw, so a test sees what a client would: the response bytes.
func cacheProvider(mw core.Middleware, handler core.HandlerFunc) *core.Provider {
	contract := &wsdl.Interface{Name: "CacheProbe", TargetNS: "urn:test"}
	for _, op := range []string{"findService", "getService", "find"} {
		contract.Operations = append(contract.Operations, wsdl.Operation{Name: op})
	}
	svc := core.NewService(contract)
	for _, op := range contract.Operations {
		svc.Handle(op.Name, handler)
	}
	svc.Use(mw)
	p := core.NewProvider("ssp", "loopback://x")
	p.MustRegister(svc)
	return p
}

// serveOp serves one call to op through p and returns the response bytes.
func serveOp(t *testing.T, p *core.Provider, op string, params ...soap.Value) string {
	t.Helper()
	var req, out bytes.Buffer
	call := soap.Call{ServiceNS: "urn:test", Method: op, Params: params}
	call.WireEnvelope().AppendTo(&req)
	if err := p.Serve(context.Background(), req.Bytes(), &out); err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return out.String()
}

// answer is the uncached response envelope for op returning vals.
func answer(op string, vals ...soap.Value) string {
	r := soap.Response{ServiceNS: "urn:test", Method: op, Returns: vals}
	return r.WireEnvelope().Render()
}

func TestResponseCacheHitSkipsHandler(t *testing.T) {
	c := NewResponseCache(time.Minute, 16)
	calls := 0
	p := cacheProvider(c.Middleware(OpPrefixes("find", "get")), func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
		calls++
		return []soap.Value{soap.Str("out", "result-"+args.String("q"))}, nil
	})

	want := answer("findService", soap.Str("out", "result-a"))
	for i := 0; i < 3; i++ {
		if got := serveOp(t, p, "findService", soap.Str("q", "a")); got != want {
			t.Fatalf("call %d answered\n%s\nwant\n%s", i, got, want)
		}
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1 (cache must short-circuit)", calls)
	}
	// Different parameters are a different entry.
	if got, want := serveOp(t, p, "findService", soap.Str("q", "b")), answer("findService", soap.Str("out", "result-b")); got != want {
		t.Fatalf("answered\n%s\nwant\n%s", got, want)
	}
	if calls != 2 {
		t.Fatalf("handler ran %d times, want 2", calls)
	}
	// Different operation, same params: also a different entry.
	if got, want := serveOp(t, p, "getService", soap.Str("q", "a")), answer("getService", soap.Str("out", "result-a")); got != want {
		t.Fatalf("answered\n%s\nwant\n%s", got, want)
	}
	if calls != 3 {
		t.Fatalf("handler ran %d times, want 3", calls)
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

// TestCacheKeyManyParams keys a request of 100,000 parameters, each name
// twice and in reverse order, within a time limit, and checks the key
// against a sort.SliceStable reference: the caller picks the parameter
// count, so ordering them must not be quadratic, and repeated names keep
// their wire order.
func TestCacheKeyManyParams(t *testing.T) {
	const n = 100000
	args := make(soap.Args, n)
	for i := range args {
		args[i] = soap.Str(fmt.Sprintf("p%06d", (n-i)/2), strconv.Itoa(i))
	}
	start := time.Now()
	got := cacheKey("urn:ns", "find", args)
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("keying %d parameters took %v", n, took)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return args[idx[a]].Name < args[idx[b]].Name })
	var want strings.Builder
	writeField(&want, "urn:ns")
	writeField(&want, "find")
	for _, i := range idx {
		writeValueKey(&want, args[i])
	}
	if got != want.String() {
		t.Errorf("key of %d parameters differs from the stable-sort reference", n)
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

// TestResponseCacheAdmission pins the admission rule: a key whose entry a
// flush dropped unread is stored on its second miss after the flush, a key
// read before the flush is stored on its first, and a hit clears the cold
// mark. A declined miss returns the handler's values to the middleware
// outside the cache; a hit or a stored miss answers through Respond and
// returns none.
func TestResponseCacheAdmission(t *testing.T) {
	c := NewResponseCache(time.Minute, 16)
	h, calls := cacheFixture(c, OpPrefixes("find"))
	step := 0
	find := func(q string, wantCalls, wantEntries int, wantDeclined uint64) {
		t.Helper()
		step++
		before := c.Declined()
		vals, err := h(inquiryCtx("find"), soap.Args{soap.Str("q", q)})
		if err != nil {
			t.Fatal(err)
		}
		_, _, entries := c.Stats()
		if *calls != wantCalls || entries != wantEntries || c.Declined() != wantDeclined {
			t.Fatalf("step %d, find %q: handler ran %d times, %d entries, %d declined; want %d, %d, %d",
				step, q, *calls, entries, c.Declined(), wantCalls, wantEntries, wantDeclined)
		}
		if declined := c.Declined() > before; declined != (vals != nil) {
			t.Fatalf("step %d, find %q: returned %d values; a miss must return them if and only if it was declined",
				step, q, len(vals))
		}
	}

	find("unread", 1, 1, 0)
	find("read", 2, 2, 0)
	find("read", 2, 2, 0) // hit
	c.Flush()
	find("read", 3, 1, 0)   // read before the flush: stored on its first miss
	find("unread", 4, 1, 1) // dropped unread: its first miss is declined
	find("unread", 5, 2, 1) // and its second stored
	find("unread", 5, 2, 1) // hit
	c.Flush()
	find("unread", 6, 1, 1) // the hit cleared the cold mark
	c.Flush()
	find("unread", 7, 0, 2) // dropped unread again
	if vals, err := h(inquiryCtx("saveService"), soap.Args{soap.Str("name", "n")}); err != nil || len(vals) != 1 {
		t.Fatalf("write = %v, %v", vals, err)
	}
	find("unread", 9, 0, 3) // a write's flush forgets the seen mark
	find("unread", 10, 1, 3)
}

func TestResponseCacheDetachesXML(t *testing.T) {
	c := NewResponseCache(time.Minute, 16)
	shared := xmlutil.New("list").AddText("item", "one")
	calls := 0
	p := cacheProvider(c.Middleware(OpPrefixes("find")), func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
		calls++
		return []soap.Value{soap.XMLDoc("doc", shared)}, nil
	})
	first := serveOp(t, p, "find")
	if want := answer("find", soap.XMLDoc("doc", xmlutil.New("list").AddText("item", "one"))); first != want {
		t.Fatalf("first answer\n%s\nwant\n%s", first, want)
	}
	// Mutate the handler's tree after it returned: the cached answer must
	// not change with it.
	shared.Children[0].Text = "corrupted"
	if got := serveOp(t, p, "find"); got != first {
		t.Fatalf("cached answer\n%s\nwant the first answer\n%s", got, first)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1", calls)
	}
	hits, misses, entries := c.Stats()
	if hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("stats = %d hits, %d misses, %d entries", hits, misses, entries)
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
	cl := core.NewClient(p.Loopback(), "x", def.Interface())
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
			Name     string `json:"name"`
			Hits     uint64 `json:"hits"`
			Misses   uint64 `json:"misses"`
			Declined uint64 `json:"declined"`
			Entries  int    `json:"entries"`
		} `json:"caches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || len(doc.Caches) != 1 {
		t.Fatalf("healthz = %+v", doc)
	}
	c := doc.Caches[0]
	if c.Name != "echo" || c.Hits != 2 || c.Misses != 1 || c.Declined != 0 || c.Entries != 1 {
		t.Fatalf("healthz cache line = %+v, want echo 2/1/0/1", c)
	}

	// An answer a flush drops unread makes its key's next miss a declined
	// one, which /healthz counts.
	if _, err := cl.CallText("getAnswer", soap.Str("q", "7")); err != nil {
		t.Fatal(err)
	}
	cache.Flush()
	if _, err := cl.CallText("getAnswer", soap.Str("q", "7")); err != nil {
		t.Fatal(err)
	}
	resp2, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if c := doc.Caches[0]; c.Hits != 2 || c.Misses != 3 || c.Declined != 1 || c.Entries != 0 {
		t.Fatalf("healthz cache line after a declined miss = %+v, want 2/3/1/0", c)
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
	tr := p.Loopback()

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
