package contextmgr

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/persist"
)

// WAL record ops. Mutation records carry the timestamps the live operation
// used (At), so replay reproduces creation and archival times exactly by
// briefly overriding the store's time source. Snapshot dumps use opUser /
// opArchived / opSeq to re-emit whole subtrees.
const (
	opCreate      = "ctx.create"
	opRemove      = "ctx.remove"
	opRename      = "ctx.rename"
	opCopy        = "ctx.copy"
	opSetProp     = "ctx.setprop"
	opRmProp      = "ctx.rmprop"
	opClearProps  = "ctx.clearprops"
	opPlaceholder = "ctx.placeholder"
	opArchive     = "ctx.archive"
	opRestore     = "ctx.restore"
	opRmArchive   = "ctx.rmarchive"
	opImportDir   = "ctx.importdir"
	opUser        = "ctx.user"
	opArchived    = "ctx.archived"
	opSeqRec      = "ctx.seq"
)

// record is the union WAL record for store mutations and snapshot dumps.
type record struct {
	Path    []string  `json:"path,omitempty"`
	Name    string    `json:"name,omitempty"`
	Value   string    `json:"value,omitempty"`
	User    string    `json:"user,omitempty"`
	Problem string    `json:"problem,omitempty"`
	Session string    `json:"session,omitempty"`
	ID      string    `json:"id,omitempty"`
	Seq     int64     `json:"seq,omitempty"`
	At      time.Time `json:"at,omitempty"`
	Data    string    `json:"data,omitempty"`
	Tree    *treeNode `json:"tree,omitempty"`
}

// treeNode is the JSON shape of a context subtree (node has unexported
// fields by design; this codec is the only thing that serializes it).
type treeNode struct {
	Name     string               `json:"name"`
	Props    map[string]string    `json:"props,omitempty"`
	Children map[string]*treeNode `json:"children,omitempty"`
	Created  time.Time            `json:"created"`
}

func treeFromNode(n *node) *treeNode {
	t := &treeNode{Name: n.name, Created: n.created}
	if len(n.props) > 0 {
		t.Props = make(map[string]string, len(n.props))
		for k, v := range n.props {
			t.Props[k] = v
		}
	}
	if len(n.children) > 0 {
		t.Children = make(map[string]*treeNode, len(n.children))
		for k, c := range n.children {
			t.Children[k] = treeFromNode(c)
		}
	}
	return t
}

func nodeFromTree(t *treeNode) *node {
	n := newNode(t.Name, t.Created)
	for k, v := range t.Props {
		n.props[k] = v
	}
	for k, c := range t.Children {
		n.children[k] = nodeFromTree(c)
	}
	return n
}

// Persist replays st into the store (which should be empty) and installs it
// as the store's durability log: from here on every mutation is
// acknowledged only after its record is fsynced. Call once, before the
// store starts serving.
func (s *Store) Persist(st persist.Store) error {
	if err := st.Replay(s.apply); err != nil {
		return err
	}
	s.persist = persist.Bind(st, s.dump)
	return nil
}

// ClosePersist flushes and closes the attached store, if any. The store
// must have stopped serving writes.
func (s *Store) ClosePersist() error {
	return s.persist.Close()
}

// CompactPersist forces one synchronous compaction (tests, operator hooks).
// Routine compaction is automatic and needs no calls.
func (s *Store) CompactPersist() error {
	return s.persist.Compact()
}

// replayAt runs fn with the store clock pinned to the record's timestamp,
// so replayed mutations mint the same creation/archival times the live
// operation did. Replay is single-threaded, so the swap is safe.
func (s *Store) replayAt(at time.Time, fn func()) {
	if at.IsZero() {
		fn()
		return
	}
	prev := s.now.Load().(func() time.Time)
	s.now.Store(func() time.Time { return at })
	defer s.now.Store(prev)
	fn()
}

// apply is the replay function. Mutations reuse the public mutators (the
// binding is not installed yet, so nothing is re-logged) and ignore their
// errors: only successful mutations are ever logged, so an error here is a
// benign snapshot-overlap duplicate — e.g. a "create" already folded into
// the snapshot, whose existence check then refuses the reapply, which is
// exactly the idempotency the replay contract asks for.
func (s *Store) apply(op string, data []byte) error {
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("contextmgr: replay %s: %w", op, err)
	}
	if rec.Seq > s.seq.Load() {
		s.seq.Store(rec.Seq)
	}
	switch op {
	case opCreate:
		s.replayAt(rec.At, func() { _ = s.Create(rec.Path) })
	case opRemove:
		_ = s.Remove(rec.Path)
	case opRename:
		_ = s.Rename(rec.Path, rec.Name)
	case opCopy:
		_ = s.Copy(rec.Path, rec.Name)
	case opSetProp:
		_ = s.SetProp(rec.Path, rec.Name, rec.Value)
	case opRmProp:
		_ = s.RemoveProp(rec.Path, rec.Name)
	case opClearProps:
		_ = s.ClearProps(rec.Path)
	case opPlaceholder:
		s.replayAt(rec.At, func() { _ = s.CreatePlaceholder(rec.User, rec.Problem, rec.Session) })
	case opArchive:
		// A snapshot's opArchived record for the same ID carries the exact
		// archived tree and replays first; re-archiving here would capture
		// a later tree state, so the snapshot version wins.
		if _, ok := s.archives.Load(rec.ID); ok {
			break
		}
		s.replayAt(rec.At, func() { _ = s.archiveAs(rec.User, rec.Problem, rec.Session, rec.ID) })
	case opRestore:
		_ = s.RestoreSession(rec.ID)
	case opRmArchive:
		_ = s.RemoveArchive(rec.ID)
	case opImportDir:
		s.replayAt(rec.At, func() { _ = s.ImportDirectory(rec.Data) })
	case opUser:
		if rec.Tree != nil {
			s.users.Store(rec.Name, nodeFromTree(rec.Tree))
		}
	case opArchived:
		if rec.Tree != nil {
			s.archives.Store(rec.ID, &Archive{
				ID: rec.ID, User: rec.User, Problem: rec.Problem, Session: rec.Session,
				When: rec.At, snapshot: nodeFromTree(rec.Tree),
			})
		}
	case opSeqRec:
		// Sequence handled above.
	default:
		// Unknown op from a newer writer: skip rather than refuse to boot.
	}
	return nil
}

// dump re-emits current state for a compacting snapshot: the archive-ID
// sequence, one record per user subtree, one per archive. Each Range visits
// shards one at a time under their read locks; mutations racing the dump
// land in the post-rotation segment and replay over the snapshot. An
// ImportDirectory record may sit before the rotation, so the dump waits out
// any import between its append and its swap.
func (s *Store) dump(add func(op string, data []byte) error) error {
	s.importMu.RLock()
	defer s.importMu.RUnlock()
	if err := persist.AddJSON(add, opSeqRec, record{Seq: s.seq.Load()}); err != nil {
		return err
	}
	var err error
	s.users.Range(func(name string, n *node) bool {
		err = persist.AddJSON(add, opUser, record{Name: name, Tree: treeFromNode(n)})
		return err == nil
	})
	if err != nil {
		return err
	}
	s.archives.Range(func(id string, a *Archive) bool {
		err = persist.AddJSON(add, opArchived, record{
			ID: a.ID, User: a.User, Problem: a.Problem, Session: a.Session,
			At: a.When, Tree: treeFromNode(a.snapshot),
		})
		return err == nil
	})
	return err
}
