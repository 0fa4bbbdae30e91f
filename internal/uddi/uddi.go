// Package uddi implements a UDDI v2-style registry: businessEntity,
// businessService, bindingTemplate, and tModel structures, with publish and
// inquiry APIs. The registry is itself exposed as a SOAP web service
// ("UDDI is a specialized Web Service", Section 3.4).
//
// The paper's groups mapped portal teams to businessEntities and portal
// services to businessServices, pointed bindingTemplates at service
// endpoints and tModels at WSDL files, and — because "UDDI lacked flexible
// descriptions that could be used to distinguish between something as
// simple as one script generator service that supports PBS and GRD and
// another that supports LSF and NQS" — encoded capabilities in free-text
// description strings by convention. This package implements both the
// registry and that convention (see Capability and FindByConvention), so
// the discovery-precision experiment can reproduce the shortcoming the
// paper reports.
package uddi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/persist"
	"repro/internal/shardmap"
)

// TModel is a technical model: in portal usage, a pointer to the WSDL
// document that defines a common service interface.
type TModel struct {
	// Key is the registry-assigned tModel key (uuid:...).
	Key string
	// Name is the interface name, e.g. "gce:BatchScriptGenerator".
	Name string
	// Description is free text.
	Description string
	// OverviewURL points at the WSDL document.
	OverviewURL string
}

// BindingTemplate binds a service to an access point (endpoint URL) and the
// tModels describing its interface.
type BindingTemplate struct {
	// Key is the registry-assigned binding key.
	Key string
	// AccessPoint is the service endpoint URL.
	AccessPoint string
	// Description is free text.
	Description string
	// TModelKeys lists the interfaces the endpoint implements.
	TModelKeys []string
}

// BusinessService is one published portal service.
type BusinessService struct {
	// Key is the registry-assigned service key.
	Key string
	// BusinessKey identifies the owning businessEntity.
	BusinessKey string
	// Name is the service name.
	Name string
	// Description is free text. Capability conventions live here.
	Description string
	// Bindings are the service's binding templates.
	Bindings []BindingTemplate
}

// BusinessEntity is one publishing organisation (a portal group: "IU
// Community Grids Lab", "SDSC").
type BusinessEntity struct {
	// Key is the registry-assigned business key.
	Key string
	// Name is the organisation name.
	Name string
	// Description is free text.
	Description string
}

// Registry is an in-memory UDDI registry safe for concurrent use. Each
// entity kind lives in its own sharded map, so publishes and inquiries
// touching different keys never contend on a common lock; published records
// are immutable once stored (Save* stores a fresh copy, readers copy out),
// which is what makes the per-key locking sufficient. Find* iterate the
// shards one at a time and therefore observe a weakly consistent view: a
// concurrently published service may or may not appear, but no result is
// ever torn.
//
// With Persist attached, every mutation is appended to the write-ahead log
// and the shard-lock critical section covers both the append and the map
// update, so per-key log order matches apply order and a compaction dump
// (which takes each shard's read lock) can never observe a mutation whose
// record it might lose. Reads never touch the log.
type Registry struct {
	businesses *shardmap.Map[*BusinessEntity]
	services   *shardmap.Map[*BusinessService]
	tmodels    *shardmap.Map[*TModel]
	seq        atomic.Int64
	persist    *persist.Binding // nil = in-memory only
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		businesses: shardmap.New[*BusinessEntity](0),
		services:   shardmap.New[*BusinessService](0),
		tmodels:    shardmap.New[*TModel](0),
	}
}

// newKey derives a deterministic uuid-like key from a sequence number and
// name; deterministic keys keep tests and recorded experiments stable (for
// concurrent publishers the interleaving, and hence the keys, are of course
// scheduling-dependent).
func (r *Registry) newKey(kind, name string) string {
	seq := r.seq.Add(1)
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%s", kind, seq, name)))
	h := hex.EncodeToString(sum[:16])
	return fmt.Sprintf("uuid:%s-%s-%s-%s-%s", h[0:8], h[8:12], h[12:16], h[16:20], h[20:32])
}

// SaveBusiness publishes a business entity, assigning its key. With
// persistence attached the entity is durable when SaveBusiness returns; an
// error means nothing was stored.
func (r *Registry) SaveBusiness(b BusinessEntity) (*BusinessEntity, error) {
	b.Key = r.newKey("business", b.Name)
	stored := b
	sh := r.businesses.ShardFor(b.Key)
	sh.Lock()
	defer sh.Unlock()
	if err := r.persist.Commit(opBusiness, record{Seq: r.seq.Load(), Business: &stored}, func() {
		sh.Put(b.Key, &stored)
	}); err != nil {
		return nil, err
	}
	return &stored, nil
}

// SaveTModel publishes a tModel, assigning its key. Durability as for
// SaveBusiness.
func (r *Registry) SaveTModel(t TModel) (*TModel, error) {
	t.Key = r.newKey("tmodel", t.Name)
	stored := t
	sh := r.tmodels.ShardFor(t.Key)
	sh.Lock()
	defer sh.Unlock()
	if err := r.persist.Commit(opTModel, record{Seq: r.seq.Load(), TModel: &stored}, func() {
		sh.Put(t.Key, &stored)
	}); err != nil {
		return nil, err
	}
	return &stored, nil
}

// SaveService publishes a service under an existing business, assigning the
// service and binding keys. The referenced business and tModels are
// validated against the current registry state; businesses are never
// deleted, so the check cannot be invalidated concurrently.
func (r *Registry) SaveService(s BusinessService) (*BusinessService, error) {
	if !r.businesses.Contains(s.BusinessKey) {
		return nil, fmt.Errorf("uddi: unknown businessKey %q", s.BusinessKey)
	}
	for _, b := range s.Bindings {
		for _, tk := range b.TModelKeys {
			if !r.tmodels.Contains(tk) {
				return nil, fmt.Errorf("uddi: binding references unknown tModel %q", tk)
			}
		}
	}
	s.Key = r.newKey("service", s.Name)
	s.Bindings = append([]BindingTemplate(nil), s.Bindings...)
	for i := range s.Bindings {
		s.Bindings[i].Key = r.newKey("binding", s.Name+"/"+s.Bindings[i].AccessPoint)
	}
	stored := s
	sh := r.services.ShardFor(s.Key)
	sh.Lock()
	defer sh.Unlock()
	if err := r.persist.Commit(opService, record{Seq: r.seq.Load(), Service: &stored}, func() {
		sh.Put(s.Key, &stored)
	}); err != nil {
		return nil, err
	}
	return &stored, nil
}

// DeleteService removes a published service.
func (r *Registry) DeleteService(key string) error {
	sh := r.services.ShardFor(key)
	sh.Lock()
	defer sh.Unlock()
	if _, ok := sh.Get(key); !ok {
		return fmt.Errorf("uddi: unknown serviceKey %q", key)
	}
	return r.persist.Commit(opDelService, record{Key: key}, func() { sh.Delete(key) })
}

// GetBusiness returns a business entity by key.
func (r *Registry) GetBusiness(key string) (*BusinessEntity, error) {
	b, ok := r.businesses.Load(key)
	if !ok {
		return nil, fmt.Errorf("uddi: unknown businessKey %q", key)
	}
	cp := *b
	return &cp, nil
}

// GetServiceDetail returns a service by key.
func (r *Registry) GetServiceDetail(key string) (*BusinessService, error) {
	s, ok := r.services.Load(key)
	if !ok {
		return nil, fmt.Errorf("uddi: unknown serviceKey %q", key)
	}
	return copyService(s), nil
}

// GetTModel returns a tModel by key.
func (r *Registry) GetTModel(key string) (*TModel, error) {
	t, ok := r.tmodels.Load(key)
	if !ok {
		return nil, fmt.Errorf("uddi: unknown tModelKey %q", key)
	}
	cp := *t
	return &cp, nil
}

// copyService detaches a stored record for a caller: stored services are
// immutable, so a shallow copy plus a fresh bindings slice is a full
// defensive copy.
func copyService(s *BusinessService) *BusinessService {
	cp := *s
	cp.Bindings = append([]BindingTemplate(nil), s.Bindings...)
	return &cp
}

// FindBusiness returns businesses whose names contain the pattern
// (case-insensitive), sorted by name. A UDDI find_business analog.
func (r *Registry) FindBusiness(namePattern string) []*BusinessEntity {
	var out []*BusinessEntity
	r.businesses.Range(func(_ string, b *BusinessEntity) bool {
		if containsFold(b.Name, namePattern) {
			cp := *b
			out = append(out, &cp)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FindService returns services matching the name pattern (substring,
// case-insensitive; empty matches all), optionally restricted to one
// business. A UDDI find_service analog.
func (r *Registry) FindService(businessKey, namePattern string) []*BusinessService {
	var out []*BusinessService
	r.services.Range(func(_ string, s *BusinessService) bool {
		if businessKey != "" && s.BusinessKey != businessKey {
			return true
		}
		if namePattern != "" && !containsFold(s.Name, namePattern) {
			return true
		}
		out = append(out, copyService(s))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FindServiceByTModel returns services with a binding implementing the
// given tModel (interface) key — how a portal client finds every provider
// of the agreed BatchScriptGenerator interface.
func (r *Registry) FindServiceByTModel(tModelKey string) []*BusinessService {
	var out []*BusinessService
	r.services.Range(func(_ string, s *BusinessService) bool {
		for _, b := range s.Bindings {
			if containsKey(b.TModelKeys, tModelKey) {
				out = append(out, copyService(s))
				break
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TModelByName finds a tModel by exact name.
func (r *Registry) TModelByName(name string) (*TModel, bool) {
	var found *TModel
	r.tmodels.Range(func(_ string, t *TModel) bool {
		if t.Name == name {
			cp := *t
			found = &cp
			return false
		}
		return true
	})
	return found, found != nil
}

// Counts returns the number of published businesses, services, and tModels.
func (r *Registry) Counts() (businesses, services, tmodels int) {
	return r.businesses.Len(), r.services.Len(), r.tmodels.Len()
}

func containsFold(haystack, needle string) bool {
	return strings.Contains(strings.ToLower(haystack), strings.ToLower(needle))
}

func containsKey(keys []string, key string) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

// --- The string-description capability convention (Section 3.4) ----------

// CapabilityPrefix introduces the convention the groups adopted: a service
// description line of the form "schedulers: PBS,GRD". UDDI's Identifier and
// Category taxonomies were "obviously inappropriate" for queuing systems,
// so capabilities ride in free text "only by convention".
const CapabilityPrefix = "schedulers:"

// DescribeCapabilities renders a capability list into the conventional
// description string, appended to any human-readable text.
func DescribeCapabilities(humanText string, schedulers []string) string {
	conv := CapabilityPrefix + " " + strings.Join(schedulers, ",")
	if humanText == "" {
		return conv
	}
	return humanText + " " + conv
}

// ParseCapabilities extracts the conventional capability list from a
// description, or nil when the convention is absent.
func ParseCapabilities(description string) []string {
	idx := strings.Index(strings.ToLower(description), CapabilityPrefix)
	if idx < 0 {
		return nil
	}
	rest := description[idx+len(CapabilityPrefix):]
	// The convention gives no delimiter; take the remainder of the line or
	// string, which is exactly the fragility the paper complains about.
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[:nl]
	}
	var out []string
	for _, tok := range strings.Split(rest, ",") {
		tok = strings.TrimSpace(tok)
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// FindByConvention searches services by naive description substring — what
// a UDDI client could actually do in 2002. The result includes any service
// whose description merely mentions the scheduler name, making false
// positives (e.g. "NQS" matching a description that says "migrating away
// from NQS") an inherent risk the discovery experiment quantifies.
func (r *Registry) FindByConvention(scheduler string) []*BusinessService {
	var out []*BusinessService
	r.services.Range(func(_ string, s *BusinessService) bool {
		if containsFold(s.Description, scheduler) {
			out = append(out, copyService(s))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FindByParsedConvention searches by parsing the capability convention and
// matching tokens exactly — the best a disciplined client can do with the
// string convention. It fails when publishers deviate from the convention,
// which FindByConvention tolerates; the two together bracket the UDDI
// approach in the discovery experiment.
func (r *Registry) FindByParsedConvention(scheduler string) []*BusinessService {
	var out []*BusinessService
	r.services.Range(func(_ string, s *BusinessService) bool {
		for _, cap := range ParseCapabilities(s.Description) {
			if strings.EqualFold(cap, scheduler) {
				out = append(out, copyService(s))
				break
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
