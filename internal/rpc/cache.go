package rpc

import (
	"container/list"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/shardmap"
	"repro/internal/soap"
	"repro/internal/xmlutil"
)

// ResponseCache memoises the answers of idempotent operations, keyed by
// service namespace, operation, and the canonicalised call parameters.
// Repeated discovery traffic — UDDI find*/get* inquiries, xmlregistry
// queries — short-circuits before the handler (and before any decode work
// below the middleware) runs.
//
// An answer is stored once, as its complete serialised response envelope:
// on a stored miss the middleware encodes the handler's returns with the
// encoder the provider itself responds through and keeps an exact-size
// copy of the bytes; a hit relays those bytes (core.Context.Respond) with
// no tree and no encode. The bytes are identical to the uncached answer by
// construction, and they alias nothing: a handler may go on mutating the
// XML trees it returned.
//
// Entries expire after TTL and the cache holds at most MaxEntries values,
// evicting least-recently-used first. A successful pass through a
// non-cacheable operation flushes the cache, so writes (save*, delete, put)
// invalidate the inquiry results derived from them; staleness is therefore
// bounded by TTL only for out-of-band mutations.
//
// Admission: a miss is stored unless its key went cold. Flush marks the
// key of every entry it drops unread as cold, and clears the mark of every
// entry that was hit since it was stored. A cold key is stored again only
// on its second miss since the last flush; its first miss is declined.
// A declined miss copies nothing: the middleware returns the handler's
// values, and the provider encodes them into its pooled buffer as for an
// uncached operation. Under a write-heavy mix, where a flush throws away
// almost every answer unread, this saves the copy of answers nobody asks
// for twice; under a read-mostly mix only the keys a flush found unread
// pay one extra miss. Cold and seen marks are bits of key hashes, so a
// collision can at worst decline or store one miss it otherwise would
// not; the answer is the same either way.
//
// Only cache operations whose result depends solely on the operation name
// and parameters: principal- or time-dependent responses would leak between
// callers.
//
// Internally the cache is split into hash-partitioned segments, each with
// its own mutex, LRU list, share of the capacity and admission bits, so
// concurrent hits on different keys never serialise behind one lock.
// Eviction is per-segment (segment-local LRU); hit/miss counters are
// atomics shared across segments. The segment count scales with capacity —
// small caches get one segment and therefore exact global LRU order, large
// caches trade exact global recency for parallelism.
type ResponseCache struct {
	ttl time.Duration

	// now is the clock, injectable for TTL tests. Set it before the cache
	// sees traffic.
	now func() time.Time

	shards []cacheShard
	mask   uint64

	hits, misses, declined atomic.Uint64
}

// cacheShard is one capacity segment: a mutex, an LRU list, the keys that
// hash to it, and their admission bits.
type cacheShard struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	// cold marks the keys whose entry the last flush that held them
	// dropped unread; seen marks the cold keys declined since the last
	// flush. Both are indexed by admissionBit.
	cold, seen bitset
}

type cacheEntry struct {
	key     string
	hash    uint64 // shardmap.Hash(key)
	raw     []byte // the serialised response envelope
	expires time.Time
	read    bool // hit since it was stored
}

// bitset is a fixed set of bits.
type bitset []uint64

func (b bitset) has(i uint64) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) set(i uint64)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) unset(i uint64)    { b[i/64] &^= 1 << (i % 64) }

// admissionBits is the size of a segment's cold and seen sets: a power of
// two with at least 16 bits per entry of capacity, so that the cold marks
// a flush can set cover at most a sixteenth of it.
func admissionBits(max int) int {
	n := 64
	for n < 16*max {
		n *= 2
	}
	return n
}

// admissionBit is a key hash's index in its segment's cold and seen sets.
// It takes the hash's high half, which the segment choice does not use.
func (s *cacheShard) admissionBit(h uint64) uint64 {
	return (h >> 32) & uint64(len(s.cold)*64-1)
}

// cacheShardCount picks the number of segments for a given capacity: one
// per 8 entries, capped at 16, so tiny caches keep exact LRU semantics and
// big ones spread across enough locks to feed every core.
func cacheShardCount(maxEntries int) int {
	n := 1
	for n*2 <= maxEntries/8 && n < 16 {
		n *= 2
	}
	return n
}

// NewResponseCache creates a cache with the given entry TTL and maximum
// entry count. Non-positive values fall back to 30s and 1024 entries.
func NewResponseCache(ttl time.Duration, maxEntries int) *ResponseCache {
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	n := cacheShardCount(maxEntries)
	c := &ResponseCache{
		ttl:    ttl,
		now:    time.Now,
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1),
	}
	for i := range c.shards {
		c.shards[i].max = maxEntries / n
		c.shards[i].order = list.New()
		c.shards[i].entries = make(map[string]*list.Element)
		words := admissionBits(maxEntries/n) / 64
		c.shards[i].cold = make(bitset, words)
		c.shards[i].seen = make(bitset, words)
	}
	return c
}

// OpPrefixes returns a predicate matching operations whose name starts with
// any of the given prefixes — the usual way to select the find*/get*/list*
// inquiry surface of a service.
func OpPrefixes(prefixes ...string) func(string) bool {
	return func(op string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(op, p) {
				return true
			}
		}
		return false
	}
}

// Middleware returns the caching middleware. cacheable selects the
// idempotent operations; every other operation passes through and, when it
// succeeds, flushes the cache (it presumably mutated the state the cached
// answers were derived from). Attach it per service (Service.Use) so one
// service's writes do not flush another's cache.
//
// A hit or a stored miss is answered through core.Context.Respond, so
// middleware outside the cache sees nil returns for it. A miss declined by
// admission (see ResponseCache) returns the handler's values instead, and
// the provider encodes them. Faults are never cached.
func (c *ResponseCache) Middleware(cacheable func(op string) bool) core.Middleware {
	return func(next core.HandlerFunc) core.HandlerFunc {
		return func(ctx *core.Context, args soap.Args) ([]soap.Value, error) {
			if cacheable == nil || !cacheable(ctx.Operation) {
				vals, err := next(ctx, args)
				if err == nil {
					c.Flush()
				}
				return vals, err
			}
			key := cacheKey(ctx.ServiceNS, ctx.Operation, args)
			h := shardmap.Hash(key)
			raw, hit, admit := c.get(key, h)
			if hit {
				ctx.Respond(raw)
				return nil, nil
			}
			vals, err := next(ctx, args)
			if err != nil || !admit {
				return vals, err
			}
			raw = encodeResponse(ctx.ServiceNS, ctx.Operation, vals)
			c.put(key, h, raw)
			ctx.Respond(raw)
			return nil, nil
		}
	}
}

// encodeResponse serialises a response envelope the way core.Provider.Serve
// would, into an exact-size slice of its own.
func encodeResponse(ns, op string, vals []soap.Value) []byte {
	b := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(b)
	resp := soap.Response{ServiceNS: ns, Method: op, Returns: vals}
	resp.WireEnvelope().AppendTo(b)
	raw := make([]byte, b.Len())
	copy(raw, b.Bytes())
	return raw
}

// Flush drops every cached entry, one segment at a time, marking the key
// of each entry dropped unread as cold and clearing the mark of each entry
// that was read, and forgets which cold keys were seen. A concurrent
// inquiry may land its entry in an already-flushed segment; staleness of
// such an entry stays bounded by TTL.
func (c *ResponseCache) Flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for le := s.order.Front(); le != nil; le = le.Next() {
			e := le.Value.(*cacheEntry)
			if bit := s.admissionBit(e.hash); e.read {
				s.cold.unset(bit)
			} else {
				s.cold.set(bit)
			}
		}
		s.order.Init()
		clear(s.entries)
		clear(s.seen)
		s.mu.Unlock()
	}
}

// Stats reports hit/miss counters and the current entry count. Misses
// include declined ones (Declined). The entry count sums segments one lock
// at a time (weakly consistent).
func (c *ResponseCache) Stats() (hits, misses uint64, entries int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += len(s.entries)
		s.mu.Unlock()
	}
	return c.hits.Load(), c.misses.Load(), entries
}

// Declined reports the misses that admission declined to store: first
// misses of cold keys since the last flush.
func (c *ResponseCache) Declined() uint64 { return c.declined.Load() }

// get looks key (with hash h) up. On a miss, admit reports whether the
// answer is to be stored; a declined miss marks the cold key seen, so
// its next miss is stored.
func (c *ResponseCache) get(key string, h uint64) (raw []byte, hit, admit bool) {
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	if le, ok := s.entries[key]; ok {
		e := le.Value.(*cacheEntry)
		if !c.now().After(e.expires) {
			s.order.MoveToFront(le)
			e.read = true
			raw = e.raw
			s.mu.Unlock()
			c.hits.Add(1)
			return raw, true, false
		}
		s.order.Remove(le)
		delete(s.entries, key)
	}
	bit := s.admissionBit(h)
	admit = !s.cold.has(bit) || s.seen.has(bit)
	if !admit {
		s.seen.set(bit)
	}
	s.mu.Unlock()
	c.misses.Add(1)
	if !admit {
		c.declined.Add(1)
	}
	return nil, false, admit
}

func (c *ResponseCache) put(key string, h uint64, raw []byte) {
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if le, ok := s.entries[key]; ok {
		e := le.Value.(*cacheEntry)
		e.raw = raw
		e.expires = c.now().Add(c.ttl)
		s.order.MoveToFront(le)
		return
	}
	for s.order.Len() >= s.max {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry).key)
	}
	e := &cacheEntry{key: key, hash: h, raw: raw, expires: c.now().Add(c.ttl)}
	s.entries[key] = s.order.PushFront(e)
}

// cacheKey canonicalises a call into a collision-free string: parameters are
// sorted by name (so semantically identical calls share an entry regardless
// of wire order) and every field is length-prefixed.
func cacheKey(ns, op string, args soap.Args) string {
	// Reserve the fields plus room for their length prefixes, so a key
	// with long scalar values (UDDI keys) is built in one allocation.
	size := len(ns) + len(op) + 8
	for _, v := range args {
		size += len(v.Name) + len(v.Type) + len(v.Text) + 12
	}
	var b strings.Builder
	b.Grow(size)
	writeField(&b, ns)
	writeField(&b, op)
	if len(args) <= 1 {
		for _, v := range args {
			writeValueKey(&b, v)
		}
		return b.String()
	}
	idx := make([]int, len(args))
	for i := range idx {
		idx[i] = i
	}
	// The caller picks the parameter count, so the sort must stay
	// O(n log n); stability keeps repeated names in wire order, which the
	// key's bytes depend on.
	slices.SortStableFunc(idx, func(i, j int) int { return strings.Compare(args[i].Name, args[j].Name) })
	for _, i := range idx {
		writeValueKey(&b, args[i])
	}
	return b.String()
}

func writeField(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

func writeValueKey(b *strings.Builder, v soap.Value) {
	writeField(b, v.Name)
	writeField(b, v.Type)
	switch {
	case v.XML != nil:
		writeField(b, v.XML.Canonical())
	case len(v.Items) > 0:
		b.WriteString(strconv.Itoa(len(v.Items)))
		b.WriteByte('[')
		for _, it := range v.Items {
			writeValueKey(b, it)
		}
		b.WriteByte(']')
	default:
		writeField(b, v.Text)
	}
}
