package shardmap

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicOps(t *testing.T) {
	m := New[int](0)
	if len(m.shards) != DefaultShards {
		t.Fatalf("shards = %d, want %d", len(m.shards), DefaultShards)
	}
	if _, ok := m.Load("a"); ok {
		t.Fatal("empty map loaded a value")
	}
	m.Store("a", 1)
	m.Store("b", 2)
	if v, ok := m.Load("a"); !ok || v != 1 {
		t.Fatalf("Load(a) = %d, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v, loaded := m.LoadOrStore("a", 9); !loaded || v != 1 {
		t.Fatalf("LoadOrStore(a) = %d, %v", v, loaded)
	}
	if v, loaded := m.LoadOrStore("c", 3); loaded || v != 3 {
		t.Fatalf("LoadOrStore(c) = %d, %v", v, loaded)
	}
	if !m.Delete("b") || m.Delete("b") {
		t.Fatal("Delete(b) should succeed exactly once")
	}
	snap := m.Snapshot()
	if len(snap) != 2 || snap["a"] != 1 || snap["c"] != 3 {
		t.Fatalf("Snapshot = %v", snap)
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d", m.Len())
	}
}

func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, DefaultShards}, {0, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := len(New[int](tc.in).shards); got != tc.want {
			t.Errorf("New(%d) has %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

func TestKeysSpreadAcrossShards(t *testing.T) {
	m := New[int](16)
	used := map[*Shard[int]]bool{}
	for i := 0; i < 256; i++ {
		used[m.ShardFor(fmt.Sprintf("key-%d", i))] = true
	}
	// FNV-1a over distinct short keys must not collapse onto a few shards.
	if len(used) < 12 {
		t.Fatalf("256 keys hit only %d/16 shards", len(used))
	}
}

func TestShardForStable(t *testing.T) {
	m := New[int](8)
	for _, k := range []string{"", "a", "user/problem/session", "uuid:0123"} {
		if m.ShardFor(k) != m.ShardFor(k) {
			t.Fatalf("ShardFor(%q) unstable", k)
		}
	}
}

func TestCallerLockedShardAccess(t *testing.T) {
	m := New[[]string](4)
	s := m.ShardFor("list")
	s.Lock()
	v, _ := s.Get("list")
	s.Put("list", append(v, "x"))
	s.Unlock()
	got, ok := m.Load("list")
	if !ok || len(got) != 1 || got[0] != "x" {
		t.Fatalf("Load(list) = %v, %v", got, ok)
	}
}

func TestLockPair(t *testing.T) {
	m := New[int](8)
	m.Store("from", 7)
	// Move an entry between keys under both locks, for every combination of
	// same-shard and cross-shard key pairs we can find.
	sa, sb, unlock := m.LockPair("from", "to")
	v, _ := sa.Get("from")
	sa.Delete("from")
	sb.Put("to", v)
	unlock()
	if _, ok := m.Load("from"); ok {
		t.Fatal("from survived the move")
	}
	if v, ok := m.Load("to"); !ok || v != 7 {
		t.Fatalf("to = %d, %v", v, ok)
	}
	// Same-key pair locks once and must not deadlock.
	_, _, unlock = m.LockPair("to", "to")
	unlock()
}

func TestRangeEarlyStop(t *testing.T) {
	m := New[int](4)
	for i := 0; i < 64; i++ {
		m.Store(fmt.Sprintf("k%d", i), i)
	}
	seen := 0
	m.Range(func(string, int) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("Range visited %d entries after early stop, want 10", seen)
	}
}

// TestConcurrentMixedWorkload hammers one map with writers, readers,
// deleters, and snapshotters. Run under -race this pins the locking; the
// functional assertion is that the surviving count balances what the
// writers and deleters did.
func TestConcurrentMixedWorkload(t *testing.T) {
	m := New[int](8)
	const workers = 8
	const keys = 64
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprintf("w%d-k%d", g, i%keys)
				switch i % 4 {
				case 0, 1:
					m.Store(k, i)
				case 2:
					m.Load(k)
					m.Len()
				default:
					if i%16 == 3 {
						m.Delete(k)
					} else {
						m.Range(func(string, int) bool { return true })
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Each worker owns its key space: the final count is exactly the keys it
	// stored minus those it deleted (deletes only ever follow stores of the
	// same key within a worker's own sequence).
	perWorker := map[int]int{}
	m.Range(func(k string, _ int) bool {
		var g, i int
		fmt.Sscanf(k, "w%d-k%d", &g, &i)
		perWorker[g]++
		return true
	})
	for g := 0; g < workers; g++ {
		stored := map[string]bool{}
		del := map[string]bool{}
		for i := 0; i < iters; i++ {
			k := fmt.Sprintf("w%d-k%d", g, i%keys)
			switch {
			case i%4 <= 1:
				stored[k] = true
				delete(del, k)
			case i%4 == 3 && i%16 == 3:
				if stored[k] {
					del[k] = true
					delete(stored, k)
				}
			}
		}
		if perWorker[g] != len(stored) {
			t.Errorf("worker %d: %d surviving keys, want %d", g, perWorker[g], len(stored))
		}
	}
}
