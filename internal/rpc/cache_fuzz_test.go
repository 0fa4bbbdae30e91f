package rpc

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

// entryStore is the state behind cacheRegistryDef: a small key/value
// registry. The mutex is there because Deadline runs handlers on worker
// goroutines.
type entryStore struct {
	mu sync.Mutex
	m  map[string]string
}

// cacheRegistryDef is a registry with the operation shapes the response
// cache serves in the portal: an XML-typed find whose answer carries a
// namespace of its own, a string and a string-array get, and a save and a
// delete that flush. get, delete and an invalid find prefix fault.
func cacheRegistryDef(st *entryStore) *Def {
	notFound := func(key string) error {
		return soap.NewPortalError("CacheRegistry", soap.ErrCodeNoSuchResource, "no entry %q", key)
	}
	return &Def{
		Name: "CacheRegistry", NS: "urn:test:cachereg",
		Ops: []Op{
			{
				Name: "findEntries", In: StrParams("prefix"), Out: []wsdl.Param{XML("entries")},
				Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
					prefix := in.Str("prefix")
					if strings.Contains(prefix, "!") {
						return nil, soap.NewPortalError("CacheRegistry", soap.ErrCodeBadRequest, "bad prefix %q", prefix)
					}
					st.mu.Lock()
					defer st.mu.Unlock()
					keys := make([]string, 0, len(st.m))
					for k := range st.m {
						if strings.HasPrefix(k, prefix) {
							keys = append(keys, k)
						}
					}
					sort.Strings(keys)
					list := xmlutil.NewNS("urn:test:cachereg:entries", "entryList")
					for _, k := range keys {
						list.Add(xmlutil.NewText("entry", st.m[k]).SetAttr("key", k))
					}
					return Ret(list), nil
				},
			},
			{
				Name: "getEntry", In: StrParams("key"), Out: []wsdl.Param{Str("value")},
				Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
					st.mu.Lock()
					defer st.mu.Unlock()
					v, ok := st.m[in.Str("key")]
					if !ok {
						return nil, notFound(in.Str("key"))
					}
					return Ret(v), nil
				},
			},
			{
				Name: "getKeys", Out: []wsdl.Param{Strs("keys")},
				Handle: func(_ *core.Context, _ Args) ([]interface{}, error) {
					st.mu.Lock()
					defer st.mu.Unlock()
					keys := make([]string, 0, len(st.m))
					for k := range st.m {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					return Ret(keys), nil
				},
			},
			{
				Name: "saveEntry", In: StrParams("key", "value"), Out: []wsdl.Param{Int("size")},
				Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
					st.mu.Lock()
					defer st.mu.Unlock()
					st.m[in.Str("key")] = in.Str("value")
					return Ret(len(st.m)), nil
				},
			},
			{
				Name: "deleteEntry", In: StrParams("key"), Out: []wsdl.Param{Bool("deleted")},
				Handle: func(_ *core.Context, in Args) ([]interface{}, error) {
					st.mu.Lock()
					defer st.mu.Unlock()
					if _, ok := st.m[in.Str("key")]; !ok {
						return nil, notFound(in.Str("key"))
					}
					delete(st.m, in.Str("key"))
					return Ret(true), nil
				},
			},
		},
	}
}

// cacheVariants builds three providers over equal, separate stores: one
// uncached, one with a small response cache (so entries get evicted), and
// one whose cache sits under a per-service Deadline inside a provider-wide
// one, so a cached answer crosses two detached contexts on its way out.
func cacheVariants() (plain *core.Provider, cached []*core.Provider, caches []*ResponseCache) {
	build := func(mws ...core.Middleware) *core.Provider {
		svc := cacheRegistryDef(&entryStore{m: map[string]string{"a": "seed & <value>"}}).MustBuild()
		for _, mw := range mws {
			svc.Use(mw)
		}
		p := core.NewProvider("fuzz-ssp", "http://fuzz.example")
		p.MustRegister(svc)
		return p
	}
	plain = build()
	small := NewResponseCache(time.Hour, 2)
	guarded := NewResponseCache(time.Hour, 64)
	deadlined := build(Deadline(time.Minute), guarded.Middleware(OpPrefixes("find", "get")))
	deadlined.Use(Deadline(time.Minute))
	cached = []*core.Provider{build(small.Middleware(OpPrefixes("find", "get"))), deadlined}
	return plain, cached, []*ResponseCache{small, guarded}
}

// cacheFuzzKeys and cacheFuzzValues are the vocabulary of a sequence: keys
// that share prefixes, and texts that need escaping.
var (
	cacheFuzzKeys   = []string{"a", "ab", "b<&>", "é\"'"}
	cacheFuzzValues = []string{"v", "x & y", "<tag attr=\"q\">", "line\r\nbreak"}
)

// cacheFuzzRequest turns one sequence byte into a request. Bits 0-2 pick
// the operation (find, a faulting find, get, getKeys, save, delete, and a
// get and a find carrying a header entry, which the decoder carves into
// an arena); bits 3-4 pick the key; bits 5-6 the saved value.
func cacheFuzzRequest(b byte) []byte {
	key := cacheFuzzKeys[b>>3&3]
	call := &soap.Call{ServiceNS: "urn:test:cachereg"}
	header := false
	switch b & 7 {
	case 0:
		call.Method, call.Params = "findEntries", []soap.Value{soap.Str("prefix", string([]rune(key)[:1]))}
	case 1:
		call.Method, call.Params = "findEntries", []soap.Value{soap.Str("prefix", key+"!")}
	case 2:
		call.Method, call.Params = "getEntry", []soap.Value{soap.Str("key", key)}
	case 3:
		call.Method = "getKeys"
	case 4:
		call.Method, call.Params = "saveEntry", []soap.Value{soap.Str("key", key), soap.Str("value", cacheFuzzValues[b>>5&3])}
	case 5:
		call.Method, call.Params = "deleteEntry", []soap.Value{soap.Str("key", key)}
	case 6:
		call.Method, call.Params, header = "getEntry", []soap.Value{soap.Str("key", key)}, true
	case 7:
		call.Method, call.Params, header = "findEntries", []soap.Value{soap.Str("prefix", "")}, true
	}
	env := call.WireEnvelope()
	if header {
		env.AddHeader(xmlutil.NewText("trace", key))
	}
	var buf bytes.Buffer
	env.AppendTo(&buf)
	return buf.Bytes()
}

// runCacheSequence serves every request of ops to the uncached and the
// cached providers and fails on the first answer whose bytes differ.
func runCacheSequence(t testing.TB, ops []byte) []*ResponseCache {
	plain, cached, caches := cacheVariants()
	for i, b := range ops {
		req := cacheFuzzRequest(b)
		var want bytes.Buffer
		werr := plain.Serve(context.Background(), req, &want)
		for v, p := range cached {
			var got bytes.Buffer
			gerr := p.Serve(context.Background(), req, &got)
			if (werr != nil) != (gerr != nil) || !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("op %d (byte %#x), cached variant %d: answer differs\nuncached (%v):\n%s\ncached (%v):\n%s",
					i, b, v, werr, want.Bytes(), gerr, got.Bytes())
			}
		}
	}
	return caches
}

// FuzzCachedVsUncached runs sequences of finds, gets, saves and deletes
// against providers that hold the same data, with and without a response
// cache, and requires byte-identical answers: a cached answer is the
// uncached one, a miss declined by admission is too, faults are never
// cached, and a write flushes every answer it could change. The seeds are
// random sequences from fixed seeds and two hand-written read patterns.
func FuzzCachedVsUncached(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 64)
		rng.Read(ops)
		f.Add(ops)
	}
	// Reads repeated between writes: the seeds must really hit, or the
	// comparison would only ever see misses.
	reads := []byte{0, 2, 3, 0, 2, 3, 6, 7, 0x08, 0x0a, 0x08, 0x0a, 4, 0, 2, 5, 0, 2, 1, 1}
	f.Add(reads)
	for _, c := range runCacheSequence(f, reads) {
		if hits, _, _ := c.Stats(); hits == 0 {
			f.Fatal("the read seed never hit a cache")
		}
	}
	// Reads of key "a" repeated across saves, which flush: each save drops
	// the find and the get unread, so after it their first misses are
	// declined and their second stored. The sequence ends on a save, a
	// declined find, a stored one and a hit, so the seed must end with
	// that one entry, after a decline: the second-miss store ran.
	coldReads := []byte{0, 2, 4, 0, 2, 0, 2, 4, 0, 0, 0}
	f.Add(coldReads)
	for _, c := range runCacheSequence(f, coldReads) {
		if _, _, entries := c.Stats(); c.Declined() == 0 || entries != 1 {
			f.Fatalf("the cold-read seed declined %d misses and ended with %d entries, want some and 1",
				c.Declined(), entries)
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		runCacheSequence(t, ops)
	})
}
