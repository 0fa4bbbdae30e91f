// Package shardmap provides the hash-partitioned, per-shard-locked map that
// backs every cross-request store in the serving stack (the UDDI registry,
// the XML container registry, the context store, and — with its own LRU
// machinery on top — the rpc response cache).
//
// A Map[V] splits its key space over a power-of-two number of shards, each
// guarded by its own sync.RWMutex. Requests touching different shards never
// contend, so on an N-core box the aggregate throughput of a read-mostly
// store scales with cores instead of flatlining behind one global lock.
//
// Two access levels are offered:
//
//   - Map-level operations (Load, Store, Delete, Len, Range, Snapshot)
//     lock and unlock the owning shard internally — the right level for
//     flat keyed stores such as the UDDI registry maps.
//   - Shard-level access (ShardFor + the Shard's caller-locked accessors)
//     lets a store hold one shard's lock across a compound operation — the
//     right level for the tree stores, where everything under one top-level
//     key (one user's context subtree, one top-level container) lives in
//     that key's shard and a path operation must lookup-then-mutate
//     atomically.
//
// Cross-shard operations (Range, Snapshot, Len) lock one shard at a time,
// so they observe a weakly consistent view: every entry that existed before
// the call and still exists after it is seen exactly once, but entries
// mutated concurrently may or may not appear. Every store built on this
// package documents that consistency contract on its own snapshot surface.
package shardmap

import "sync"

// DefaultShards is the shard count used by New. 32 comfortably exceeds the
// core counts this stack targets while keeping per-map overhead trivial.
const DefaultShards = 32

// Hash is the string hash used for shard selection: FNV-1a 64. Exported so
// sibling packages partitioning by the same keys (the response cache) pick
// shards consistently with the stores they sit in front of.
func Hash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Shard is one lock-plus-map partition. The embedded RWMutex is taken by
// the Map-level operations; callers using ShardFor for compound operations
// lock it themselves and then use the caller-locked accessors below.
type Shard[V any] struct {
	sync.RWMutex
	items map[string]V
}

// Get returns the value for key. Caller must hold the shard lock (read or
// write).
func (s *Shard[V]) Get(key string) (V, bool) {
	v, ok := s.items[key]
	return v, ok
}

// Put stores the value for key. Caller must hold the shard write lock.
func (s *Shard[V]) Put(key string, v V) {
	s.items[key] = v
}

// Delete removes key, reporting whether it was present. Caller must hold
// the shard write lock.
func (s *Shard[V]) Delete(key string) bool {
	_, ok := s.items[key]
	if ok {
		delete(s.items, key)
	}
	return ok
}

// Len returns the entry count. Caller must hold the shard lock.
func (s *Shard[V]) Len() int { return len(s.items) }

// Range calls fn for every entry until fn returns false, reporting whether
// the iteration ran to completion. Caller must hold the shard lock; fn must
// not touch the shard's map through other accessors.
func (s *Shard[V]) Range(fn func(key string, v V) bool) bool {
	for k, v := range s.items {
		if !fn(k, v) {
			return false
		}
	}
	return true
}

// Clear drops every entry. Caller must hold the shard write lock.
func (s *Shard[V]) Clear() {
	clear(s.items)
}

// Map is a sharded string-keyed map safe for concurrent use.
type Map[V any] struct {
	shards []Shard[V]
	mask   uint64
}

// New creates a map with n shards, rounded up to a power of two; n <= 0
// uses DefaultShards.
func New[V any](n int) *Map[V] {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	m := &Map[V]{shards: make([]Shard[V], size), mask: uint64(size - 1)}
	for i := range m.shards {
		m.shards[i].items = make(map[string]V)
	}
	return m
}

// ShardFor returns the shard owning key, unlocked.
func (m *Map[V]) ShardFor(key string) *Shard[V] {
	return &m.shards[Hash(key)&m.mask]
}

// LockPair write-locks the shards owning both keys in index order — the
// deadlock-free way to move an entry between keys (rename, copy) that may
// live in different shards. When both keys share a shard it is locked once
// and sa == sb. The returned unlock releases whatever was taken.
func (m *Map[V]) LockPair(a, b string) (sa, sb *Shard[V], unlock func()) {
	ia := Hash(a) & m.mask
	ib := Hash(b) & m.mask
	sa, sb = &m.shards[ia], &m.shards[ib]
	if ia == ib {
		sa.Lock()
		return sa, sb, sa.Unlock
	}
	lo, hi := sa, sb
	if ib < ia {
		lo, hi = sb, sa
	}
	lo.Lock()
	hi.Lock()
	return sa, sb, func() { hi.Unlock(); lo.Unlock() }
}

// Load returns the value stored for key.
func (m *Map[V]) Load(key string) (V, bool) {
	s := m.ShardFor(key)
	s.RLock()
	v, ok := s.items[key]
	s.RUnlock()
	return v, ok
}

// Contains reports whether key is present.
func (m *Map[V]) Contains(key string) bool {
	_, ok := m.Load(key)
	return ok
}

// Store sets the value for key.
func (m *Map[V]) Store(key string, v V) {
	s := m.ShardFor(key)
	s.Lock()
	s.items[key] = v
	s.Unlock()
}

// LoadOrStore returns the existing value for key if present; otherwise it
// stores and returns v. loaded is true when the value was already present.
func (m *Map[V]) LoadOrStore(key string, v V) (actual V, loaded bool) {
	s := m.ShardFor(key)
	s.Lock()
	if cur, ok := s.items[key]; ok {
		s.Unlock()
		return cur, true
	}
	s.items[key] = v
	s.Unlock()
	return v, false
}

// Delete removes key, reporting whether it was present.
func (m *Map[V]) Delete(key string) bool {
	s := m.ShardFor(key)
	s.Lock()
	ok := s.Delete(key)
	s.Unlock()
	return ok
}

// Len returns the total entry count, summed shard by shard (weakly
// consistent under concurrent mutation).
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.RLock()
		n += len(s.items)
		s.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false, locking one shard
// at a time (weakly consistent; see the package comment). fn must not call
// back into the map.
func (m *Map[V]) Range(fn func(key string, v V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.RLock()
		done := !s.Range(fn)
		s.RUnlock()
		if done {
			return
		}
	}
}

// Snapshot copies the whole map, shard by shard (weakly consistent).
func (m *Map[V]) Snapshot() map[string]V {
	out := make(map[string]V, m.Len())
	m.Range(func(k string, v V) bool {
		out[k] = v
		return true
	})
	return out
}

// Clear drops every entry, shard by shard.
func (m *Map[V]) Clear() {
	for i := range m.shards {
		s := &m.shards[i]
		s.Lock()
		s.Clear()
		s.Unlock()
	}
}
