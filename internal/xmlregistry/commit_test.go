package xmlregistry

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// brokenStore is a persist.Store whose Append fails once broken is set.
type brokenStore struct{ broken bool }

func (b *brokenStore) Append(op string, data []byte) error {
	if b.broken {
		return errors.New("disk gone")
	}
	return nil
}
func (b *brokenStore) Replay(func(op string, data []byte) error) error { return nil }
func (b *brokenStore) Compact(func(add func(op string, data []byte) error) error) error {
	return nil
}
func (b *brokenStore) Size() int64  { return 0 }
func (b *brokenStore) Close() error { return nil }

// rotatingStore models a wal.Log whose compaction starts right after the
// armed op's record is appended: the log rotates at once, so that record
// lives only in the superseded segment, and once the dump has written the
// snapshot the snapshot is its only copy. Append gives the dump up to
// 100ms to run before returning, so a dump that the service does not hold
// off until the mutation is applied finishes first.
type rotatingStore struct {
	armOp  string
	dump   func(add func(op string, data []byte) error) error
	dumped chan struct{}

	mu        sync.Mutex
	snap, seg [][2]string // (op, data) records
}

func (s *rotatingStore) Append(op string, data []byte) error {
	s.mu.Lock()
	s.seg = append(s.seg, [2]string{op, string(data)})
	armed := op == s.armOp
	if armed {
		s.seg = nil
	}
	s.mu.Unlock()
	if armed {
		go func() {
			var recs [][2]string
			if err := s.dump(func(op string, data []byte) error {
				recs = append(recs, [2]string{op, string(data)})
				return nil
			}); err != nil {
				panic(err)
			}
			s.mu.Lock()
			s.snap = recs
			s.mu.Unlock()
			close(s.dumped)
		}()
		select {
		case <-s.dumped:
		case <-time.After(100 * time.Millisecond):
		}
	}
	return nil
}
func (s *rotatingStore) Replay(apply func(op string, data []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range append(append([][2]string(nil), s.snap...), s.seg...) {
		if err := apply(rec[0], []byte(rec[1])); err != nil {
			return err
		}
	}
	return nil
}
func (s *rotatingStore) Compact(func(add func(op string, data []byte) error) error) error {
	return nil
}
func (s *rotatingStore) Size() int64  { return 0 }
func (s *rotatingStore) Close() error { return nil }

// dumpText is the registry's snapshot dump as sorted "op data" lines.
func dumpText(t *testing.T, r *Registry) string {
	t.Helper()
	var recs []string
	if err := r.dump(func(op string, data []byte) error {
		recs = append(recs, op+" "+string(data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(recs)
	return strings.Join(recs, "\n")
}

// TestFailedAppendChangesNothing pins log-then-apply: when the durability
// log refuses a record, the mutation reports the error and leaves the
// registry exactly as it was, for every mutating operation.
func TestFailedAppendChangesNothing(t *testing.T) {
	st := &brokenStore{}
	r := NewRegistry()
	if err := r.Persist(st); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("a/b", "service", []Property{{Name: "k", Value: "v"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("top", "serviceGroup"); err != nil {
		t.Fatal(err)
	}
	st.broken = true
	ops := []struct {
		name string
		op   func() error
	}{
		{"create new", func() error { _, err := r.Create("x/y/z", "service"); return err }},
		{"create existing", func() error { _, err := r.Create("a/b", "service"); return err }},
		{"put new", func() error { return r.Put("n/m", "service", []Property{{Name: "k", Value: "w"}}) }},
		{"put existing", func() error { return r.Put("a/b", "service", []Property{{Name: "k", Value: "w"}}) }},
		{"delete top", func() error { return r.Delete("top") }},
		{"delete nested", func() error { return r.Delete("a/b") }},
		{"import", func() error { return r.Import(`<container name="" type="root"/>`) }},
	}
	for _, c := range ops {
		before := dumpText(t, r)
		if err := c.op(); err == nil || !strings.Contains(err.Error(), "disk gone") {
			t.Errorf("%s: error = %v, want the append failure", c.name, err)
		}
		if after := dumpText(t, r); after != before {
			t.Errorf("%s: a failed append changed the registry:\nbefore %s\nafter  %s", c.name, before, after)
		}
	}
}

// TestImportSurvivesCompactionAfterAppend pins that a compaction dump
// cannot run between an Import's append and its swap: the Import record
// sits in a segment the compaction deletes, so after a restart the import
// must come back from the snapshot.
func TestImportSurvivesCompactionAfterAppend(t *testing.T) {
	r := NewRegistry()
	st := &rotatingStore{armOp: opImport, dump: r.dump, dumped: make(chan struct{})}
	if err := r.Persist(st); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("old/x", "service", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Import(`<container name="" type="root"><container name="new" type="serviceGroup"/></container>`); err != nil {
		t.Fatal(err)
	}
	<-st.dumped
	restarted := NewRegistry()
	if err := restarted.Persist(st); err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.Get("new"); err != nil {
		t.Errorf("import lost after restart: %v", err)
	}
	if _, err := restarted.Get("old/x"); err == nil {
		t.Error("pre-import container came back after restart")
	}
}
