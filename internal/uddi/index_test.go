package uddi

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/persist"
	"repro/internal/wal"
)

// scanByTModel is the oracle of the tModel index: every stored service
// with a binding naming tModelKey, found by ranging over all service
// shards, in (Name, Key) order.
func scanByTModel(r *Registry, tModelKey string) []*BusinessService {
	var out []*BusinessService
	r.services.Range(func(_ string, s *BusinessService) bool {
		for _, b := range s.Bindings {
			if slices.Contains(b.TModelKeys, tModelKey) {
				out = append(out, s)
				break
			}
		}
		return true
	})
	slices.SortFunc(out, compareServices)
	return out
}

// indexProgram runs a fuzz input's save/delete/find steps against one
// registry and checks every find against the scan oracle.
type indexProgram struct {
	t    *testing.T
	r    *Registry
	biz  string
	tms  []string // the tModel keys the steps bind to, and one unknown key
	live []string // keys of the services saved and not deleted
	n    int      // services saved so far
}

func newIndexProgram(t *testing.T, r *Registry) *indexProgram {
	p := &indexProgram{t: t, r: r}
	biz, err := r.SaveBusiness(BusinessEntity{Name: "fuzz"})
	if err != nil {
		t.Fatal(err)
	}
	p.biz = biz.Key
	for i := 0; i < 3; i++ {
		tm, err := r.SaveTModel(TModel{Name: fmt.Sprintf("gce:Interface%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		p.tms = append(p.tms, tm.Key)
	}
	p.tms = append(p.tms, "uuid:unknown")
	return p
}

// run executes prog two bytes to a step: an op byte and an argument byte.
func (p *indexProgram) run(prog []byte) {
	for ; len(prog) >= 2; prog = prog[2:] {
		p.step(prog[0], prog[1])
	}
}

func (p *indexProgram) step(op, arg byte) {
	known := p.tms[:3]
	switch op % 4 {
	case 0, 1: // save
		// One to three bindings of one or two keys each, so a service may
		// name one tModel in several bindings or twice in one.
		bindings := make([]BindingTemplate, 1+int(arg%3))
		for i := range bindings {
			bindings[i].AccessPoint = fmt.Sprintf("http://host%d.example.org/%d", p.n, i)
			bindings[i].TModelKeys = []string{known[(int(arg>>2)+i)%3]}
			if arg>>(4+i)&1 == 1 {
				bindings[i].TModelKeys = append(bindings[i].TModelKeys, known[int(op>>2+arg>>6)%3])
			}
		}
		// Four names only, so the order's ties on Name are broken by Key.
		s, err := p.r.SaveService(BusinessService{BusinessKey: p.biz, Name: fmt.Sprintf("svc-%d", op>>2%4), Bindings: bindings})
		if err != nil {
			p.t.Fatal(err)
		}
		p.n++
		p.live = append(p.live, s.Key)
	case 2: // delete
		if len(p.live) == 0 {
			return
		}
		i := int(arg) % len(p.live)
		if err := p.r.DeleteService(p.live[i]); err != nil {
			p.t.Fatal(err)
		}
		p.live = slices.Delete(p.live, i, i+1)
	default: // find
		p.check(p.r, p.tms[int(arg)%len(p.tms)])
	}
}

// check compares r's answer for tModelKey with the scan oracle: the same
// stored records in the same order, and the exported copies equal to them.
func (p *indexProgram) check(r *Registry, tModelKey string) {
	p.t.Helper()
	got, want := r.servicesByTModel(tModelKey), scanByTModel(r, tModelKey)
	if !slices.Equal(got, want) {
		p.t.Fatalf("index for %s: %v, scan: %v (alike keys are different records)", tModelKey, serviceKeys(got), serviceKeys(want))
	}
	if copies := r.FindServiceByTModel(tModelKey); !reflect.DeepEqual(values(copies), values(want)) {
		p.t.Fatalf("FindServiceByTModel(%s) = %+v, scan %+v", tModelKey, values(copies), values(want))
	}
}

// checkAll checks every tModel the program binds to, and an unknown one.
func (p *indexProgram) checkAll(r *Registry) {
	p.t.Helper()
	for _, tk := range p.tms {
		p.check(r, tk)
	}
}

func serviceKeys(services []*BusinessService) []string {
	keys := make([]string, len(services))
	for i, s := range services {
		keys[i] = s.Name + "/" + s.Key
	}
	return keys
}

// FuzzFindByTModelIndexVsScan checks the tModel index against the scan
// oracle. It runs the input's save/delete/find steps on an in-memory
// registry, checking every find in order; then runs them again on a
// registry logged to a WAL, with a compaction part-way through whose
// rotated segment also takes the next steps (so the snapshot and the tail
// overlap), reopens the log, and checks that the index rebuilt on replay
// answers as the oracle and as the in-memory registry do.
func FuzzFindByTModelIndexVsScan(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 1, 0x35, 3, 1, 4, 0xff, 2, 0, 3, 2, 0, 7, 3, 1})
	f.Add([]byte{0, 0xf0, 0, 0xf0, 4, 0xf0, 3, 0, 2, 1, 3, 0, 8, 0x12, 3, 2, 2, 0, 3, 3})
	f.Add([]byte{1, 2, 5, 6, 9, 10, 13, 14, 2, 3, 2, 3, 3, 0, 3, 1, 3, 2, 3, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 400 {
			prog = prog[:400]
		}
		mem := newIndexProgram(t, NewRegistry())
		mem.run(prog)
		mem.checkAll(mem.r)

		dir := t.TempDir()
		l, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		logged := NewRegistry()
		if err := logged.Persist(l); err != nil {
			t.Fatal(err)
		}
		p := newIndexProgram(t, logged)
		cut := len(prog) / 4 * 2
		overlap := min(len(prog), cut+6)
		p.run(prog[:cut])
		// The steps run inside the dump land after the rotation, in the
		// new segment, and in the snapshot too.
		logged.persist = persist.Bind(l, func(add func(op string, data []byte) error) error {
			p.run(prog[cut:overlap])
			return logged.dump(add)
		})
		if err := logged.CompactPersist(); err != nil {
			t.Fatal(err)
		}
		p.run(prog[overlap:])
		p.checkAll(logged)
		if err := logged.ClosePersist(); err != nil {
			t.Fatal(err)
		}

		l, err = wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		reopened := NewRegistry()
		if err := reopened.Persist(l); err != nil {
			t.Fatal(err)
		}
		defer reopened.ClosePersist()
		p.checkAll(reopened)
		for _, tk := range p.tms {
			if got, want := reopened.FindServiceByTModel(tk), mem.r.FindServiceByTModel(tk); !reflect.DeepEqual(values(got), values(want)) {
				t.Fatalf("after replay, FindServiceByTModel(%s) = %v, in memory %v", tk, serviceKeys(got), serviceKeys(want))
			}
		}
	})
}

// TestStoredServiceIsImmutable changes a saved service's input, its save
// result and a find's result, and checks that the registry's record and
// the tModel index see none of it.
func TestStoredServiceIsImmutable(t *testing.T) {
	r := NewRegistry()
	biz, _ := r.SaveBusiness(BusinessEntity{Name: "IU"})
	tm, _ := r.SaveTModel(TModel{Name: "gce:Batch"})
	in := BusinessService{BusinessKey: biz.Key, Name: "batch",
		Bindings: []BindingTemplate{{AccessPoint: "http://iu/batch", TModelKeys: []string{tm.Key}}}}
	saved, err := r.SaveService(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Bindings[0].TModelKeys[0] = "caller-mutated"
	saved.Name = "zzz"
	saved.Bindings[0].TModelKeys[0] = "result-mutated"
	found := r.FindServiceByTModel(tm.Key)
	if len(found) != 1 {
		t.Fatalf("find after changing the input and the save result: %d services, want 1", len(found))
	}
	found[0].Bindings[0].TModelKeys[0] = "reader-mutated"
	found[0].Bindings[0].AccessPoint = "http://elsewhere"
	for _, got := range []*BusinessService{r.FindServiceByTModel(tm.Key)[0], r.FindService("", "")[0]} {
		if got.Name != "batch" || got.Bindings[0].AccessPoint != "http://iu/batch" ||
			!slices.Equal(got.Bindings[0].TModelKeys, []string{tm.Key}) {
			t.Fatalf("stored service changed through a caller's copy: %+v", *got)
		}
	}
	if got, err := r.GetServiceDetail(saved.Key); err != nil || got.Bindings[0].TModelKeys[0] != tm.Key {
		t.Fatalf("GetServiceDetail = %+v, %v", got, err)
	}
}

// TestFindsAreDeterministic saves twenty services of one name, and
// businesses of one name, and checks that every find answers in (Name,
// Key) order, so repeated finds and their serviceList encodings are
// identical.
func TestFindsAreDeterministic(t *testing.T) {
	r := NewRegistry()
	tm, _ := r.SaveTModel(TModel{Name: "gce:Batch"})
	var biz *BusinessEntity
	for i := 0; i < 20; i++ {
		biz, _ = r.SaveBusiness(BusinessEntity{Name: "same"})
	}
	for i := 0; i < 20; i++ {
		if _, err := r.SaveService(BusinessService{BusinessKey: biz.Key, Name: "same",
			Description: "schedulers: PBS",
			Bindings:    []BindingTemplate{{AccessPoint: fmt.Sprintf("http://h%d", i), TModelKeys: []string{tm.Key}}}}); err != nil {
			t.Fatal(err)
		}
	}
	finds := map[string]func() []*BusinessService{
		"FindService":            func() []*BusinessService { return r.FindService("", "same") },
		"FindServiceByTModel":    func() []*BusinessService { return r.FindServiceByTModel(tm.Key) },
		"FindByConvention":       func() []*BusinessService { return r.FindByConvention("PBS") },
		"FindByParsedConvention": func() []*BusinessService { return r.FindByParsedConvention("PBS") },
	}
	for name, find := range finds {
		first := find()
		if len(first) != 20 || !slices.IsSortedFunc(first, compareServices) {
			t.Fatalf("%s: %v, want 20 services in (Name, Key) order", name, serviceKeys(first))
		}
		wire := serviceList(first).Render()
		for i := 0; i < 10; i++ {
			again := find()
			if !reflect.DeepEqual(values(again), values(first)) {
				t.Fatalf("%s answered %v, then %v", name, serviceKeys(first), serviceKeys(again))
			}
			if w := serviceList(again).Render(); w != wire {
				t.Fatalf("%s encodes differently on a repeat:\n%s\n%s", name, wire, w)
			}
		}
	}
	businesses := r.FindBusiness("same")
	if len(businesses) != 20 || !slices.IsSortedFunc(businesses, func(a, b *BusinessEntity) int {
		return compareNameKey(a.Name, a.Key, b.Name, b.Key)
	}) {
		t.Fatalf("FindBusiness: %d businesses, not in (Name, Key) order", len(businesses))
	}
}
