package contextmgr

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

// dumpText is the store's snapshot dump as sorted "op data" lines. The
// archive-ID sequence record is left out: a failed ArchiveSession may use
// up an ID, and since IDs are never reused that gap is harmless.
func dumpText(t *testing.T, s *Store) string {
	t.Helper()
	var recs []string
	if err := s.dump(func(op string, data []byte) error {
		if op != opSeqRec {
			recs = append(recs, op+" "+string(data))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(recs)
	return strings.Join(recs, "\n")
}

// TestFailedAppendChangesNothing pins log-then-apply: when the durability
// log refuses a record, the mutation reports the error and leaves the
// store exactly as it was, for every mutating operation.
func TestFailedAppendChangesNothing(t *testing.T) {
	st := &brokenStore{}
	s := NewStore()
	if err := s.Persist(st); err != nil {
		t.Fatal(err)
	}
	session := []string{"u", "p", "s"}
	if err := s.CreatePlaceholder("u", "p", "s"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProp(session, "k", "v"); err != nil {
		t.Fatal(err)
	}
	arch, err := s.ArchiveSession("u", "p", "s")
	if err != nil {
		t.Fatal(err)
	}
	st.broken = true
	ops := []struct {
		name string
		op   func() error
	}{
		{"create user", func() error { return s.Create([]string{"w"}) }},
		{"create session", func() error { return s.Create([]string{"u", "p", "t"}) }},
		{"remove user", func() error { return s.Remove([]string{"u"}) }},
		{"remove session", func() error { return s.Remove(session) }},
		{"rename user", func() error { return s.Rename([]string{"u"}, "w") }},
		{"rename session", func() error { return s.Rename(session, "t") }},
		{"copy user", func() error { return s.Copy([]string{"u"}, "w") }},
		{"copy session", func() error { return s.Copy(session, "t") }},
		{"set prop", func() error { return s.SetProp(session, "k", "w") }},
		{"remove prop", func() error { return s.RemoveProp(session, "k") }},
		{"clear props", func() error { return s.ClearProps(session) }},
		{"placeholder", func() error { return s.CreatePlaceholder("w", "p", "s") }},
		{"archive", func() error { _, err := s.ArchiveSession("u", "p", "s"); return err }},
		{"restore", func() error { return s.RestoreSession(arch) }},
		{"remove archive", func() error { return s.RemoveArchive(arch) }},
		{"import directory", func() error { return s.ImportDirectory("/x/y\n/x/y:k=v") }},
	}
	for _, c := range ops {
		before := dumpText(t, s)
		if err := c.op(); err == nil || !strings.Contains(err.Error(), "disk gone") {
			t.Errorf("%s: error = %v, want the append failure", c.name, err)
		}
		if after := dumpText(t, s); after != before {
			t.Errorf("%s: a failed append changed the store:\nbefore %s\nafter  %s", c.name, before, after)
		}
	}
}

// TestImportSurvivesCompactionAfterAppend pins that a compaction dump
// cannot run between an ImportDirectory's append and its swap: the import
// record sits in a segment the compaction deletes, so after a restart the
// import must come back from the snapshot.
func TestImportSurvivesCompactionAfterAppend(t *testing.T) {
	s := NewStore()
	st := &rotatingStore{armOp: opImportDir, dump: s.dump, dumped: make(chan struct{})}
	if err := s.Persist(st); err != nil {
		t.Fatal(err)
	}
	if err := s.Create([]string{"old"}); err != nil {
		t.Fatal(err)
	}
	if err := s.ImportDirectory("/new/p\n/new/p:k=v"); err != nil {
		t.Fatal(err)
	}
	<-st.dumped
	restarted := NewStore()
	if err := restarted.Persist(st); err != nil {
		t.Fatal(err)
	}
	if v, err := restarted.GetProp([]string{"new", "p"}, "k"); err != nil || v != "v" {
		t.Errorf("import lost after restart: %q, %v", v, err)
	}
	if restarted.Exists([]string{"old"}) {
		t.Error("pre-import user came back after restart")
	}
}
