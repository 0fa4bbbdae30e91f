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
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"unicode/utf8"

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
// which is what makes the per-key locking sufficient.
//
// byTModel indexes services by tModel key: each list holds the stored
// service records themselves, in (Name, Key) order, each service once per
// tModel however many of its bindings name it. The index is written only
// inside the owning service shard's write lock (the index shard lock is
// taken inside it, never the other way round): a save adds the record to
// the service map and then to the index, a delete removes it from the index
// and then from the map. FindServiceByTModel reads one index shard and
// copies out an answer that is already in order, so it never waits on a
// service shard held across a log append. The other finds iterate the
// service shards one at a time. Every find observes a weakly consistent
// view: a save acknowledged before the find began is seen, a delete
// acknowledged before it is not, a concurrent one may or may not be, and no
// result is ever torn.
//
// With Persist attached, every mutation is appended to the write-ahead log
// and the shard-lock critical section covers both the append and the map
// update, so per-key log order matches apply order and a compaction dump
// (which takes each shard's read lock) can never observe a mutation whose
// record it might lose. Reads never touch the log. The index is derived
// state: it is never logged, and replay rebuilds it.
type Registry struct {
	businesses *shardmap.Map[*BusinessEntity]
	services   *shardmap.Map[*BusinessService]
	tmodels    *shardmap.Map[*TModel]
	byTModel   *shardmap.Map[[]*BusinessService]
	seq        atomic.Int64
	persist    *persist.Binding // nil = in-memory only
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		businesses: shardmap.New[*BusinessEntity](0),
		services:   shardmap.New[*BusinessService](0),
		tmodels:    shardmap.New[*TModel](0),
		byTModel:   shardmap.New[[]*BusinessService](0),
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
// error means nothing was stored. The registry keeps its own copy of b, and
// the result is the caller's.
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
	return &b, nil
}

// SaveTModel publishes a tModel, assigning its key. Durability and copies
// as for SaveBusiness.
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
	return &t, nil
}

// SaveService publishes a service under an existing business, assigning the
// service and binding keys. The referenced business and tModels are
// validated against the current registry state; businesses are never
// deleted, so the check cannot be invalidated concurrently. The registry
// keeps its own copy of s, and the result is the caller's.
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
	stored := copyService(&s)
	for i := range stored.Bindings {
		stored.Bindings[i].Key = r.newKey("binding", s.Name+"/"+stored.Bindings[i].AccessPoint)
	}
	sh := r.services.ShardFor(s.Key)
	sh.Lock()
	defer sh.Unlock()
	if err := r.persist.Commit(opService, record{Seq: r.seq.Load(), Service: stored}, func() {
		r.putService(sh, stored)
	}); err != nil {
		return nil, err
	}
	return copyService(stored), nil
}

// DeleteService removes a published service.
func (r *Registry) DeleteService(key string) error {
	sh := r.services.ShardFor(key)
	sh.Lock()
	defer sh.Unlock()
	if _, ok := sh.Get(key); !ok {
		return fmt.Errorf("uddi: unknown serviceKey %q", key)
	}
	return r.persist.Commit(opDelService, record{Key: key}, func() { r.removeService(sh, key) })
}

// putService stores s in sh, its service shard, and then files it in the
// tModel index, first dropping the index entries of any record the key
// held before. The caller holds sh for writing.
func (r *Registry) putService(sh *shardmap.Shard[*BusinessService], s *BusinessService) {
	if old, ok := sh.Get(s.Key); ok {
		r.index(old, false)
	}
	sh.Put(s.Key, s)
	r.index(s, true)
}

// removeService drops key's record from the tModel index and then from sh,
// its service shard. The caller holds sh for writing.
func (r *Registry) removeService(sh *shardmap.Shard[*BusinessService], key string) {
	if old, ok := sh.Get(key); ok {
		r.index(old, false)
		sh.Delete(key)
	}
}

// index adds s to (add) or removes it from the list of every tModel its
// bindings name. A tModel named twice finds s already listed, or already
// gone, the second time. The caller holds s's service shard for writing.
func (r *Registry) index(s *BusinessService, add bool) {
	for _, b := range s.Bindings {
		for _, tk := range b.TModelKeys {
			sh := r.byTModel.ShardFor(tk)
			sh.Lock()
			list, _ := sh.Get(tk)
			i, listed := slices.BinarySearchFunc(list, s, compareServices)
			switch {
			case add && !listed:
				sh.Put(tk, slices.Insert(list, i, s))
			case !add && listed && len(list) == 1:
				sh.Delete(tk)
			case !add && listed:
				sh.Put(tk, slices.Delete(list, i, i+1))
			}
			sh.Unlock()
		}
	}
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

// copyService detaches a stored record for a caller, or a caller's
// record for storing: a fresh bindings slice and fresh tModel key slices,
// so neither side can change the other's.
func copyService(s *BusinessService) *BusinessService {
	cp := *s
	cp.Bindings = slices.Clone(s.Bindings)
	for i := range cp.Bindings {
		cp.Bindings[i].TModelKeys = slices.Clone(cp.Bindings[i].TModelKeys)
	}
	return &cp
}

// copyServices deep-copies a find's answer for a caller.
func copyServices(services []*BusinessService) []*BusinessService {
	for i, s := range services {
		services[i] = copyService(s)
	}
	return services
}

// compareNameKey is the one order of every find's answer: by name, then by
// key. Keys are unique, so the order is total and repeated finds over the
// same entries give the same answer, byte for byte on the wire.
func compareNameKey(aName, aKey, bName, bKey string) int {
	return cmp.Or(strings.Compare(aName, bName), strings.Compare(aKey, bKey))
}

func compareServices(a, b *BusinessService) int {
	return compareNameKey(a.Name, a.Key, b.Name, b.Key)
}

// findServices returns the stored services that match, in (Name, Key)
// order: a fresh slice of shared, immutable records.
func (r *Registry) findServices(match func(*BusinessService) bool) []*BusinessService {
	var out []*BusinessService
	r.services.Range(func(_ string, s *BusinessService) bool {
		if match(s) {
			out = append(out, s)
		}
		return true
	})
	slices.SortFunc(out, compareServices)
	return out
}

// FindBusiness returns businesses whose names contain the pattern
// (case-insensitive), sorted by name and then key. A UDDI find_business
// analog.
func (r *Registry) FindBusiness(namePattern string) []*BusinessEntity {
	var out []*BusinessEntity
	r.businesses.Range(func(_ string, b *BusinessEntity) bool {
		if containsFold(b.Name, namePattern) {
			cp := *b
			out = append(out, &cp)
		}
		return true
	})
	slices.SortFunc(out, func(a, b *BusinessEntity) int { return compareNameKey(a.Name, a.Key, b.Name, b.Key) })
	return out
}

// FindService returns services matching the name pattern (substring,
// case-insensitive; empty matches all), optionally restricted to one
// business. A UDDI find_service analog.
func (r *Registry) FindService(businessKey, namePattern string) []*BusinessService {
	return copyServices(r.servicesByName(businessKey, namePattern))
}

// servicesByName is FindService's answer as stored records.
func (r *Registry) servicesByName(businessKey, namePattern string) []*BusinessService {
	return r.findServices(func(s *BusinessService) bool {
		return (businessKey == "" || s.BusinessKey == businessKey) &&
			(namePattern == "" || containsFold(s.Name, namePattern))
	})
}

// FindServiceByTModel returns services with a binding implementing the
// given tModel (interface) key — how a portal client finds every provider
// of the agreed BatchScriptGenerator interface. UDDI v2's find_service by
// tModelBag; it answers from the tModel index.
func (r *Registry) FindServiceByTModel(tModelKey string) []*BusinessService {
	return copyServices(r.servicesByTModel(tModelKey))
}

// servicesByTModel returns the stored records filed under tModelKey, in
// (Name, Key) order: a fresh slice of shared, immutable records.
func (r *Registry) servicesByTModel(tModelKey string) []*BusinessService {
	sh := r.byTModel.ShardFor(tModelKey)
	sh.RLock()
	defer sh.RUnlock()
	list, _ := sh.Get(tModelKey)
	return slices.Clone(list)
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

// containsFold reports whether needle occurs in haystack, ignoring case.
// ASCII strings are compared in place, with no allocation. If either
// string has a byte outside ASCII, both are lowered first, since a
// non-ASCII letter may lower to an ASCII one (the Kelvin sign to k).
func containsFold(haystack, needle string) bool {
	if !isASCII(haystack) || !isASCII(needle) {
		return strings.Contains(strings.ToLower(haystack), strings.ToLower(needle))
	}
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if strings.EqualFold(haystack[i:i+len(needle)], needle) {
			return true
		}
	}
	return false
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
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
// description, or nil when the convention is absent. The prefix matches in
// any ASCII case.
func ParseCapabilities(description string) []string {
	idx := indexFoldASCII(description, CapabilityPrefix)
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

// indexFoldASCII returns the index in s of the first occurrence of the
// lower-case ASCII string lower, matching ASCII letters of s in either
// case, or -1. It searches s in place: lowering s first could change its
// byte length before the match (Ⱥ lowers to a longer ⱥ), so an index into
// the lowered copy would not be one into s.
func indexFoldASCII(s, lower string) int {
	for i := 0; i+len(lower) <= len(s); i++ {
		j := 0
		for j < len(lower) && lowerASCII(s[i+j]) == lower[j] {
			j++
		}
		if j == len(lower) {
			return i
		}
	}
	return -1
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// FindByConvention searches services by naive description substring — what
// a UDDI client could actually do in 2002. The result includes any service
// whose description merely mentions the scheduler name, making false
// positives (e.g. "NQS" matching a description that says "migrating away
// from NQS") an inherent risk the discovery experiment quantifies.
func (r *Registry) FindByConvention(scheduler string) []*BusinessService {
	return copyServices(r.servicesByDescription(scheduler))
}

// servicesByDescription is FindByConvention's answer as stored records.
func (r *Registry) servicesByDescription(pattern string) []*BusinessService {
	return r.findServices(func(s *BusinessService) bool { return containsFold(s.Description, pattern) })
}

// FindByParsedConvention searches by parsing the capability convention and
// matching tokens exactly — the best a disciplined client can do with the
// string convention. It fails when publishers deviate from the convention,
// which FindByConvention tolerates; the two together bracket the UDDI
// approach in the discovery experiment.
func (r *Registry) FindByParsedConvention(scheduler string) []*BusinessService {
	return copyServices(r.findServices(func(s *BusinessService) bool {
		return slices.ContainsFunc(ParseCapabilities(s.Description), func(cap string) bool {
			return strings.EqualFold(cap, scheduler)
		})
	}))
}
