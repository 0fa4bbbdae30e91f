package rpc

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/soap"
)

// TestStatsConcurrentRecording hammers one Stats collector from many
// goroutines through its middleware, polling snapshots concurrently. Run
// under -race this pins the lock-free recording (atomic counters, CAS
// max, sync.Map op registry); the functional assertion is that not one
// request is lost: counts, errors, and the decode count all balance
// exactly once the workers quiesce.
func TestStatsConcurrentRecording(t *testing.T) {
	s := NewStats()
	boom := errors.New("boom")
	handler := func(ctx *core.Context, _ soap.Args) ([]soap.Value, error) {
		if ctx.Operation == "fail" {
			return nil, boom
		}
		return []soap.Value{soap.Str("out", "x")}, nil
	}
	h := s.Middleware()(handler)

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx := &core.Context{ServiceNS: "urn:test:stats", Operation: "work"}
				if i%5 == 0 {
					ctx.Operation = "fail"
				}
				_, _ = h(ctx, nil)
				if i%50 == g {
					// Concurrent snapshots must not disturb recording.
					s.Snapshot()
					s.DecodeSnapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	var failPer int
	for i := 0; i < iters; i++ {
		if i%5 == 0 {
			failPer++
		}
	}
	snap := s.Snapshot()
	work := snap["urn:test:stats#work"]
	fail := snap["urn:test:stats#fail"]
	if total := work.Count + fail.Count; total != workers*iters {
		t.Fatalf("recorded %d requests, want %d", total, workers*iters)
	}
	if want := uint64(workers * failPer); fail.Count != want || fail.Errors != want {
		t.Fatalf("fail op = %+v, want count=errors=%d", fail, want)
	}
	if work.Errors != 0 {
		t.Fatalf("work op recorded %d errors, want 0", work.Errors)
	}
	if dec := s.DecodeSnapshot(); dec.FastPath != workers*iters || dec.TreePath != 0 {
		t.Fatalf("decode counts %+v, want %d decoded, none on a tree", dec, workers*iters)
	}
	for op, st := range snap {
		if st.MaxNS > st.TotalNS {
			t.Fatalf("%s: MaxNS %d exceeds TotalNS %d", op, st.MaxNS, st.TotalNS)
		}
	}
}
