// Package persist defines the pluggable persistence seam between the
// portal's stateful services (uddi, xmlregistry, contextmgr) and a durable
// backend (internal/wal). Services write every mutation through a Store as
// an (op, record) pair, replay the store into an empty in-memory state on
// boot, and periodically compact the log into a snapshot of current state.
// A nil *Binding is a valid no-op store, so a service wired for persistence
// but started without a data directory keeps today's purely in-memory
// behavior with no extra branches at call sites.
package persist

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
)

// Store is the persistence backend contract. internal/wal provides the
// durable implementation; tests may substitute in-memory fakes.
//
// The contract services rely on:
//   - Append returns only after the record is durable (the acknowledgement
//     recovery preserves), and preserves call order for calls that do not
//     overlap in time.
//   - Replay streams snapshot records first, then log records in append
//     order. Records may be replayed that are also reflected in the
//     snapshot, so apply functions must be idempotent (upsert semantics).
//   - Compact asks the service to re-emit its current state via dump; the
//     resulting snapshot supersedes all earlier records. Appends may run
//     concurrently with the dump.
type Store interface {
	Append(op string, data []byte) error
	Replay(apply func(op string, data []byte) error) error
	Compact(dump func(add func(op string, data []byte) error) error) error
	Size() int64
	Close() error
}

// DefaultCompactAfter is the active-log size at which a Binding schedules a
// compaction.
const DefaultCompactAfter = 4 << 20

// Binding couples one service to its Store: it JSON-encodes mutation
// records, paces compaction off the log size, and runs compactions on a
// background goroutine so a mutation that happens to trip the threshold
// never dumps state from under its own locks (the dump takes the service's
// shard read locks, which the logging call path may hold for writing).
//
// All methods are nil-safe: a nil *Binding logs nothing and recovers
// nothing.
type Binding struct {
	store Store
	dump  func(add func(op string, data []byte) error) error

	// CompactAfter overrides DefaultCompactAfter when set before use.
	CompactAfter int64

	compacting atomic.Bool
	wg         sync.WaitGroup
}

// Bind wraps a store and the service's state-dump function. The caller has
// already replayed the store; from here on every mutation must go through
// Commit.
func Bind(store Store, dump func(add func(op string, data []byte) error) error) *Binding {
	return &Binding{store: store, dump: dump, CompactAfter: DefaultCompactAfter}
}

// Commit is the one write rule of every service: log first, then apply.
// It durably appends one JSON-encoded mutation record and, only once the
// append succeeded, runs apply; a non-nil error means the mutation must not
// be acknowledged, and apply has not run, so memory is untouched. It
// returns only after the record is fsynced (at once on a nil Binding,
// which logs nothing and just applies). Callers run every check that can
// fail before Commit and call it under the lock that orders the mutation,
// so per-key log order equals apply order. That lock must also hold off
// the service's dump until apply has run: a compaction started by another
// writer may rotate the log just after this record was appended, and then
// the snapshot is the record's only lasting copy.
func (b *Binding) Commit(op string, v interface{}, apply func()) error {
	if b == nil {
		apply()
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("persist: encode %s: %w", op, err)
	}
	if err := b.store.Append(op, data); err != nil {
		return fmt.Errorf("persist: append %s: %w", op, err)
	}
	apply()
	// After apply: a compaction this record starts must dump a state that
	// already holds it, since the record's own segment may be deleted once
	// the snapshot is written.
	b.maybeCompact()
	return nil
}

// maybeCompact schedules a background compaction when the active log has
// outgrown the threshold and none is already running.
func (b *Binding) maybeCompact() {
	if !b.claimCompaction() {
		return
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			err := b.store.Compact(b.dump)
			b.compacting.Store(false)
			if err != nil {
				// The old generation is intact and the log keeps growing;
				// the next threshold crossing retries.
				log.Printf("persist: compaction failed: %v", err)
				return
			}
			// A Commit that crossed the threshold while this compaction ran
			// found it in flight and scheduled nothing: re-check now, so
			// that growth does not wait for the next Commit call.
			if !b.claimCompaction() {
				return
			}
		}
	}()
}

// claimCompaction reports whether the active log has outgrown the
// threshold and, if so, marks a compaction as running (false when one
// already is).
func (b *Binding) claimCompaction() bool {
	return b.store.Size() >= b.CompactAfter && b.compacting.CompareAndSwap(false, true)
}

// Compact runs one compaction synchronously (tests, shutdown hooks).
func (b *Binding) Compact() error {
	if b == nil {
		return nil
	}
	return b.store.Compact(b.dump)
}

// Close waits for any background compaction, then closes the store. The
// service must have stopped logging before calling Close.
func (b *Binding) Close() error {
	if b == nil {
		return nil
	}
	b.wg.Wait()
	return b.store.Close()
}

// AddJSON JSON-encodes one record into a Compact dump's add sink; dump
// implementations use it so their records round-trip through the same
// encoding Commit uses.
func AddJSON(add func(op string, data []byte) error, op string, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("persist: encode %s: %w", op, err)
	}
	return add(op, data)
}
