package uddi

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestRegistryConcurrentMixedWorkload hammers one registry with
// publishers, inquirers, and deleters at once. Run under -race (the CI
// race job does) this pins the sharded locking; the functional assertions
// are that every datum read is internally consistent and the final counts
// balance what the writers did.
func TestRegistryConcurrentMixedWorkload(t *testing.T) {
	r := NewRegistry()
	biz, _ := r.SaveBusiness(BusinessEntity{Name: "Shared Host"})
	tm, _ := r.SaveTModel(TModel{Name: "gce:BatchScriptGenerator"})

	const workers = 8
	const iters = 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	survivors := make([][]string, workers) // each worker's surviving service keys
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []string // service keys this worker published and kept
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0, 1:
					s, err := r.SaveService(BusinessService{
						BusinessKey: biz.Key,
						Name:        fmt.Sprintf("svc-g%d-i%d", g, i),
						Bindings:    []BindingTemplate{{AccessPoint: "http://x", TModelKeys: []string{tm.Key}}},
					})
					if err != nil {
						errs <- err
						return
					}
					mine = append(mine, s.Key)
				case 2:
					// Inquiries against a moving target: results must be
					// well-formed, not any particular size.
					for _, s := range r.FindServiceByTModel(tm.Key) {
						if s.Key == "" || len(s.Bindings) == 0 {
							errs <- fmt.Errorf("torn service read: %+v", s)
							return
						}
					}
					if _, err := r.GetBusiness(biz.Key); err != nil {
						errs <- err
						return
					}
				default:
					if len(mine) > 0 {
						k := mine[len(mine)-1]
						mine = mine[:len(mine)-1]
						if err := r.DeleteService(k); err != nil {
							errs <- err
							return
						}
					}
				}
			}
			survivors[g] = mine
			// Everything this worker kept must be retrievable and intact.
			for _, k := range mine {
				s, err := r.GetServiceDetail(k)
				if err != nil {
					errs <- err
					return
				}
				if s.BusinessKey != biz.Key {
					errs <- fmt.Errorf("service %s lost its business key", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Counts balance: per worker, ceil(iters/2) publishes happen at i%4 in
	// {0,1}; deletes pop one kept key at i%4 in {2,3}... the exact survivor
	// count is deterministic per worker, so recompute it.
	perWorker := 0
	kept := 0
	for i := 0; i < iters; i++ {
		switch i % 4 {
		case 0, 1:
			perWorker++
			kept++
		case 3:
			if kept > 0 {
				perWorker--
				kept--
			}
		}
	}
	_, services, _ := r.Counts()
	if want := perWorker * workers; services != want {
		t.Fatalf("services = %d, want %d", services, want)
	}

	// The tModel index lists exactly the surviving services, in order.
	var want []string
	for _, keys := range survivors {
		want = append(want, keys...)
	}
	found := r.FindServiceByTModel(tm.Key)
	got := make([]string, len(found))
	for i, s := range found {
		got[i] = s.Key
	}
	if !slices.IsSortedFunc(found, compareServices) {
		t.Fatalf("index answer out of (Name, Key) order: %v", got)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("index lists %d services, survivors are %d:\nindex %v\nwant  %v", len(got), len(want), got, want)
	}
	if scan := scanByTModel(r, tm.Key); !slices.Equal(r.servicesByTModel(tm.Key), scan) {
		t.Fatalf("index and scan disagree: %v, %v", serviceKeys(r.servicesByTModel(tm.Key)), serviceKeys(scan))
	}
}
