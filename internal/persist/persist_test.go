package persist_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/wal"
)

// TestNilBindingIsNoOp pins the seam's central convenience: services wired
// for persistence but started without -data hold a nil *Binding, and every
// call must be a cheap no-op rather than a panic.
func TestNilBindingIsNoOp(t *testing.T) {
	var b *persist.Binding
	applied := false
	if err := b.Commit("op", map[string]int{"x": 1}, func() { applied = true }); err != nil || !applied {
		t.Fatalf("nil Commit: %v, applied %v", err, applied)
	}
	if err := b.Compact(); err != nil {
		t.Fatalf("nil Compact: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestLogEncodeErrorNotAppended(t *testing.T) {
	l, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := persist.Bind(l, func(add func(string, []byte) error) error { return nil })
	applied := false
	if err := b.Commit("bad", func() {}, func() { applied = true }); err == nil { // funcs don't JSON-encode
		t.Fatal("unencodable value accepted")
	}
	if applied {
		t.Fatal("failed Commit ran its apply step")
	}
	if got := l.Size(); got != 0 {
		t.Fatalf("failed Commit grew the store by %d bytes", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoCompaction drives Commit past a tiny CompactAfter threshold and waits
// for the background compaction to shrink the active log, then verifies the
// snapshot round-trips through Replay with nothing lost.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// state is written by the test goroutine and ranged over by the
	// background compaction's dump, so both hold mu.
	var mu sync.Mutex
	state := map[string]string{}
	b := persist.Bind(l, func(add func(string, []byte) error) error {
		mu.Lock()
		defer mu.Unlock()
		for k, v := range state {
			if err := persist.AddJSON(add, "kv", map[string]string{"k": k, "v": v}); err != nil {
				return err
			}
		}
		return nil
	})
	b.CompactAfter = 256
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key-%02d", i)
		mu.Lock()
		state[k] = "value"
		mu.Unlock()
		if err := b.Commit("kv", map[string]string{"k": k, "v": "value"}, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Size() >= 2*b.CompactAfter {
		if time.Now().After(deadline) {
			t.Fatalf("active log never compacted; size %d", l.Size())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := map[string]string{}
	if err := l2.Replay(func(op string, data []byte) error {
		var kv map[string]string
		if err := json.Unmarshal(data, &kv); err != nil {
			return err
		}
		got[kv["k"]] = kv["v"]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(state) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(state))
	}
	for k, v := range state {
		if got[k] != v {
			t.Fatalf("key %s = %q after recovery, want %q", k, got[k], v)
		}
	}
}

// gatedStore is an in-memory Store whose first Compact blocks until
// release is closed. Compact rotates the active log at its start, as the
// WAL does, so Size counts only the bytes appended since.
type gatedStore struct {
	mu        sync.Mutex
	size      int64
	compacts  int
	started   chan struct{} // closed when the first Compact begins
	release   chan struct{} // the first Compact returns once this closes
	compacted chan int      // receives the running count after each Compact
}

func newGatedStore() *gatedStore {
	return &gatedStore{
		started:   make(chan struct{}),
		release:   make(chan struct{}),
		compacted: make(chan int, 16),
	}
}

func (s *gatedStore) Append(_ string, data []byte) error {
	s.mu.Lock()
	s.size += int64(len(data))
	s.mu.Unlock()
	return nil
}

func (s *gatedStore) Replay(func(string, []byte) error) error { return nil }

func (s *gatedStore) Compact(dump func(add func(string, []byte) error) error) error {
	s.mu.Lock()
	s.size = 0
	s.compacts++
	n := s.compacts
	s.mu.Unlock()
	if n == 1 {
		close(s.started)
		<-s.release
	}
	err := dump(func(string, []byte) error { return nil })
	s.compacted <- n
	return err
}

func (s *gatedStore) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

func (s *gatedStore) Close() error { return nil }

// TestCompactionRechecksAfterRun pins compaction liveness: writes that
// push the log past the threshold while a compaction is running must get
// their own compaction once it ends, with no further Commit call to prompt
// it.
func TestCompactionRechecksAfterRun(t *testing.T) {
	s := newGatedStore()
	b := persist.Bind(s, func(func(string, []byte) error) error { return nil })
	b.CompactAfter = 32
	record := map[string]string{"k": "0123456789abcdef0123456789abcdef"}

	if err := b.Commit("kv", record, func() {}); err != nil { // crosses the threshold
		t.Fatal(err)
	}
	select {
	case <-s.started:
	case <-time.After(5 * time.Second):
		t.Fatalf("first compaction never started; log size %d", s.Size())
	}
	// The first compaction is in flight: these writes cross the threshold
	// again and find it running.
	for i := 0; i < 4; i++ {
		if err := b.Commit("kv", record, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Size(); got < b.CompactAfter {
		t.Fatalf("mid-compaction log size %d, want >= %d", got, b.CompactAfter)
	}
	close(s.release)

	timeout := time.After(5 * time.Second)
	for want := 1; want <= 2; want++ {
		select {
		case n := <-s.compacted:
			if n != want {
				t.Fatalf("compaction %d finished, want %d", n, want)
			}
		case <-timeout:
			t.Fatalf("compaction %d never ran; log size %d", want, s.Size())
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Size(); got != 0 {
		t.Fatalf("log size %d after the re-check compaction, want 0", got)
	}
}
