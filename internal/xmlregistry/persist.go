package xmlregistry

import (
	"encoding/json"
	"fmt"

	"repro/internal/persist"
)

// WAL record ops. The snapshot dump is a single opImport record holding the
// Export document: the Export/Import pair already round-trips the whole
// hierarchy (names, types, properties, child order), so the registry's
// snapshot format is its own interchange format.
const (
	opCreate = "xreg.create"
	opPut    = "xreg.put"
	opDelete = "xreg.delete"
	opImport = "xreg.import"
)

// record is the union WAL record for registry mutations.
type record struct {
	Path  string     `json:"path,omitempty"`
	Type  string     `json:"type,omitempty"`
	Props []Property `json:"props,omitempty"`
	Doc   string     `json:"doc,omitempty"`
}

// Persist replays st into the registry (which should be empty) and installs
// it as the registry's durability log: from here on every Create/Put/
// Delete/Import is acknowledged only after its record is fsynced. Call
// once, before the registry starts serving.
func (r *Registry) Persist(st persist.Store) error {
	if err := st.Replay(r.apply); err != nil {
		return err
	}
	r.persist = persist.Bind(st, r.dump)
	return nil
}

// ClosePersist flushes and closes the attached store, if any. The registry
// must have stopped serving writes.
func (r *Registry) ClosePersist() error {
	return r.persist.Close()
}

// CompactPersist forces one synchronous compaction (tests, operator hooks).
// Routine compaction is automatic and needs no calls.
func (r *Registry) CompactPersist() error {
	return r.persist.Compact()
}

// apply is the replay function. It reuses the public mutators (the binding
// is not installed yet, so nothing is re-logged) and ignores their errors:
// only successful mutations are ever logged, so an error here is a benign
// snapshot-overlap duplicate — e.g. a "create" already folded into the
// snapshot, or a "delete" of a path a replayed Import swapped away.
func (r *Registry) apply(op string, data []byte) error {
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("xmlregistry: replay %s: %w", op, err)
	}
	switch op {
	case opCreate:
		_, _ = r.Create(rec.Path, rec.Type)
	case opPut:
		_ = r.Put(rec.Path, rec.Type, rec.Props)
	case opDelete:
		_ = r.Delete(rec.Path)
	case opImport:
		_ = r.Import(rec.Doc)
	default:
		// Unknown op from a newer writer: skip rather than refuse to boot.
	}
	return nil
}

// dump re-emits current state for a compacting snapshot as one Export
// document. Export is weakly consistent under concurrent writers; records
// for those writes land in the post-rotation segment and are replayed over
// the snapshot, which is what makes the weak walk sufficient. An Import
// record may sit before the rotation, so the dump waits out any Import
// between its append and its swap.
func (r *Registry) dump(add func(op string, data []byte) error) error {
	r.importMu.RLock()
	doc := r.Export()
	r.importMu.RUnlock()
	return persist.AddJSON(add, opImport, record{Doc: doc})
}
