package uddi

import (
	"errors"
	"sort"
	"strings"
	"testing"
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

// dumpText is the registry's snapshot dump as sorted "op data" lines. The
// key sequence record is left out: a failed save may use up a sequence
// number, and since keys are never reused that gap is harmless.
func dumpText(t *testing.T, r *Registry) string {
	t.Helper()
	var recs []string
	if err := r.dump(func(op string, data []byte) error {
		if op != opSeq {
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
// registry exactly as it was, for every mutating operation.
func TestFailedAppendChangesNothing(t *testing.T) {
	st := &brokenStore{}
	r := NewRegistry()
	if err := r.Persist(st); err != nil {
		t.Fatal(err)
	}
	biz, err := r.SaveBusiness(BusinessEntity{Name: "IU"})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := r.SaveTModel(TModel{Name: "gce:Batch"})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := r.SaveService(BusinessService{BusinessKey: biz.Key, Name: "batch",
		Bindings: []BindingTemplate{{AccessPoint: "http://iu/batch", TModelKeys: []string{tm.Key}}}})
	if err != nil {
		t.Fatal(err)
	}
	st.broken = true
	ops := []struct {
		name string
		op   func() error
	}{
		{"save business", func() error { _, err := r.SaveBusiness(BusinessEntity{Name: "SDSC"}); return err }},
		{"save tModel", func() error { _, err := r.SaveTModel(TModel{Name: "gce:Other"}); return err }},
		{"save service", func() error {
			_, err := r.SaveService(BusinessService{BusinessKey: biz.Key, Name: "more"})
			return err
		}},
		{"delete service", func() error { return r.DeleteService(svc.Key) }},
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
