// Package xmlregistry implements the discovery system the paper proposes to
// replace UDDI: "a recursive, self-describing XML container hierarchy into
// which metadata about services may be flexibly mapped" (Section 3.4). The
// paper suggests LDAP or an XML database as possible realisations; this
// package provides the XML-database flavour.
//
// The registry stores a tree of containers. Each container is self-
// describing: it carries a type name, arbitrary typed properties, and child
// containers. Service capabilities (such as the queuing systems a batch
// script generator supports) are first-class property values rather than
// free-text conventions, so queries like "every service whose
// supportedScheduler property equals NQS" are exact — the query precision
// that UDDI's string descriptions cannot deliver, which the discovery
// experiment (S3.4) measures.
package xmlregistry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/rpc"
	"repro/internal/shardmap"
	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

// Property is one typed name/value pair on a container. Multi-valued
// properties are expressed by repeating the name.
type Property struct {
	// Name of the property, e.g. "supportedScheduler".
	Name string
	// Value as text.
	Value string
}

// Container is one node of the self-describing hierarchy.
type Container struct {
	// Name is the node's name within its parent, unique among siblings.
	Name string
	// Type is the self-description, e.g. "serviceGroup", "service",
	// "capability".
	Type string
	// Properties are the node's typed metadata.
	Properties []Property
	// children by name.
	children map[string]*Container
	// order preserves insertion order of children.
	order []string
}

// newContainer constructs an empty container.
func newContainer(name, typ string) *Container {
	return &Container{Name: name, Type: typ, children: map[string]*Container{}}
}

// Child returns the named child, or nil.
func (c *Container) Child(name string) *Container {
	return c.children[name]
}

// Children returns the child containers in insertion order.
func (c *Container) Children() []*Container {
	out := make([]*Container, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.children[n])
	}
	return out
}

// Prop returns the first value of the named property and whether it exists.
func (c *Container) Prop(name string) (string, bool) {
	for _, p := range c.Properties {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// PropAll returns every value of the named property.
func (c *Container) PropAll(name string) []string {
	var out []string
	for _, p := range c.Properties {
		if p.Name == name {
			out = append(out, p.Value)
		}
	}
	return out
}

// SetProp appends a property value.
func (c *Container) SetProp(name, value string) *Container {
	c.Properties = append(c.Properties, Property{Name: name, Value: value})
	return c
}

// Element renders the container subtree as self-describing XML.
func (c *Container) Element() *xmlutil.Element {
	el := xmlutil.New("container").SetAttr("name", c.Name).SetAttr("type", c.Type)
	for _, p := range c.Properties {
		el.Add(xmlutil.NewText("property", p.Value).SetAttr("name", p.Name))
	}
	for _, child := range c.Children() {
		el.Add(child.Element())
	}
	return el
}

// containerFromElement parses a rendered container subtree.
func containerFromElement(el *xmlutil.Element) (*Container, error) {
	if el.Name != "container" {
		return nil, fmt.Errorf("xmlregistry: element %q is not container", el.Name)
	}
	c := newContainer(el.AttrDefault("name", ""), el.AttrDefault("type", ""))
	for _, p := range el.ChildrenNamed("property") {
		c.SetProp(p.AttrDefault("name", ""), p.Text)
	}
	for _, childEl := range el.ChildrenNamed("container") {
		child, err := containerFromElement(childEl)
		if err != nil {
			return nil, err
		}
		c.children[child.Name] = child
		c.order = append(c.order, child.Name)
	}
	return c, nil
}

// Registry is the container hierarchy with concurrency-safe access.
//
// The hierarchy is partitioned by top-level container name: everything
// under one top-level container lives in that name's shard and every path
// operation runs under that single shard's lock, so requests against
// different top-level containers (different service groups, different
// deployments) proceed in parallel. The insertion order of top-level
// containers — which only Export renders — is kept separately under a
// small mutex touched only on top-level create/delete/import.
// With Persist attached, each mutation's record is appended inside the same
// shard-lock critical section as the mutation itself, so per-container log
// order matches apply order and a compaction dump (which takes shard read
// locks) never observes a mutation whose record it might lose. Reads never
// touch the log.
type Registry struct {
	top *shardmap.Map[*Container]

	ordMu sync.Mutex
	order []string

	persist *persist.Binding // nil = in-memory only
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{top: shardmap.New[*Container](0)}
}

// addOrder records a newly created top-level name. Idempotent, so an
// Import racing a Create cannot leave a duplicate behind.
func (r *Registry) addOrder(name string) {
	r.ordMu.Lock()
	defer r.ordMu.Unlock()
	for _, n := range r.order {
		if n == name {
			return
		}
	}
	r.order = append(r.order, name)
}

func (r *Registry) removeOrder(name string) {
	r.ordMu.Lock()
	defer r.ordMu.Unlock()
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

func (r *Registry) topOrder() []string {
	r.ordMu.Lock()
	defer r.ordMu.Unlock()
	return append([]string(nil), r.order...)
}

// createLocked makes (or finds) the container at segs, creating
// intermediates of type "container" and the leaf with typ. The caller
// holds the write lock of the shard owning segs[0].
func (r *Registry) createLocked(s *shardmap.Shard[*Container], segs []string, typ string) (*Container, error) {
	leafIdx := len(segs) - 1
	cur, ok := s.Get(segs[0])
	if !ok {
		t := "container"
		if leafIdx == 0 {
			t = typ
		}
		cur = newContainer(segs[0], t)
		s.Put(segs[0], cur)
		r.addOrder(segs[0])
	} else if leafIdx == 0 && cur.Type != typ {
		return nil, fmt.Errorf("xmlregistry: %s exists with type %q, requested %q", segs[0], cur.Type, typ)
	}
	for i := 1; i < len(segs); i++ {
		seg := segs[i]
		next := cur.children[seg]
		if next == nil {
			t := "container"
			if i == leafIdx {
				t = typ
			}
			next = newContainer(seg, t)
			cur.children[seg] = next
			cur.order = append(cur.order, seg)
		} else if i == leafIdx && next.Type != typ {
			return nil, fmt.Errorf("xmlregistry: %s exists with type %q, requested %q", strings.Join(segs, "/"), next.Type, typ)
		}
		cur = next
	}
	return cur, nil
}

// Create makes (or returns a deep copy of) the container at the
// slash-separated path, setting its type. Intermediate containers are
// created with type "container". Returns an error when the path exists
// with a conflicting type.
func (r *Registry) Create(path, typ string) (*Container, error) {
	segs, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	s := r.top.ShardFor(segs[0])
	s.Lock()
	defer s.Unlock()
	c, err := r.createLocked(s, segs, typ)
	if err != nil {
		return nil, err
	}
	if err := r.persist.Log(opCreate, record{Path: path, Type: typ}); err != nil {
		return nil, err
	}
	return copyContainer(c), nil
}

// Put replaces the properties of the container at path, creating it (with
// the given type) if needed. Create-and-set runs under one shard lock, so
// a concurrent Get sees either the old properties or the new, never a
// half-written container.
func (r *Registry) Put(path, typ string, props []Property) error {
	segs, err := splitPath(path)
	if err != nil {
		return err
	}
	s := r.top.ShardFor(segs[0])
	s.Lock()
	defer s.Unlock()
	c, err := r.createLocked(s, segs, typ)
	if err != nil {
		return err
	}
	c.Properties = append([]Property(nil), props...)
	return r.persist.Log(opPut, record{Path: path, Type: typ, Props: props})
}

// Get returns a deep copy of the container at path.
func (r *Registry) Get(path string) (*Container, error) {
	segs, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	s := r.top.ShardFor(segs[0])
	s.RLock()
	defer s.RUnlock()
	c, err := lookupLocked(s, segs, path)
	if err != nil {
		return nil, err
	}
	return copyContainer(c), nil
}

// Delete removes the container at path and its subtree.
func (r *Registry) Delete(path string) error {
	segs, err := splitPath(path)
	if err != nil {
		return err
	}
	s := r.top.ShardFor(segs[0])
	s.Lock()
	defer s.Unlock()
	if len(segs) == 1 {
		if !s.Delete(segs[0]) {
			return fmt.Errorf("xmlregistry: no container at %q", path)
		}
		r.removeOrder(segs[0])
		return r.persist.Log(opDelete, record{Path: path})
	}
	parent, err := lookupLocked(s, segs[:len(segs)-1], path)
	if err != nil {
		return err
	}
	leaf := segs[len(segs)-1]
	if _, ok := parent.children[leaf]; !ok {
		return fmt.Errorf("xmlregistry: no container at %q", path)
	}
	delete(parent.children, leaf)
	for i, n := range parent.order {
		if n == leaf {
			parent.order = append(parent.order[:i], parent.order[i+1:]...)
			break
		}
	}
	return r.persist.Log(opDelete, record{Path: path})
}

// lookupLocked resolves segs within the shard. The caller holds the
// shard's lock (read or write); path is the original request path for
// error messages.
func lookupLocked(s *shardmap.Shard[*Container], segs []string, path string) (*Container, error) {
	cur, ok := s.Get(segs[0])
	if !ok {
		return nil, fmt.Errorf("xmlregistry: no container at %q", path)
	}
	for _, seg := range segs[1:] {
		cur = cur.children[seg]
		if cur == nil {
			return nil, fmt.Errorf("xmlregistry: no container at %q", path)
		}
	}
	return cur, nil
}

func splitPath(path string) ([]string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil, fmt.Errorf("xmlregistry: empty path")
	}
	segs := strings.Split(path, "/")
	for _, s := range segs {
		if s == "" {
			return nil, fmt.Errorf("xmlregistry: empty path segment in %q", path)
		}
	}
	return segs, nil
}

func copyContainer(c *Container) *Container {
	cp := newContainer(c.Name, c.Type)
	cp.Properties = append([]Property(nil), c.Properties...)
	for _, name := range c.order {
		child := copyContainer(c.children[name])
		cp.children[name] = child
		cp.order = append(cp.order, name)
	}
	return cp
}

// Query describes a structured search over the hierarchy. All specified
// constraints must hold; an empty query matches every container.
type Query struct {
	// Type restricts matches to containers of this type.
	Type string
	// HasProp requires a property with this name (any value).
	HasProp string
	// PropEquals requires property name=value pairs to match exactly
	// (value among the container's values for that property).
	PropEquals []Property
	// Under restricts the search to the subtree at this path.
	Under string
}

// Match is one query result: the container and its path.
type Match struct {
	// Path is the slash-separated path of the matched container.
	Path string
	// Container is a deep copy of the match.
	Container *Container
}

// Find runs a structured query and returns matches sorted by path. A
// query restricted by Under runs entirely under that subtree's shard
// lock; an unrestricted query visits the top-level shards one at a time
// and is therefore weakly consistent with concurrent writers — each
// subtree is internally consistent, but subtrees mutated mid-query may
// reflect different instants.
func (r *Registry) Find(q Query) ([]Match, error) {
	var out []Match
	var walk func(c *Container, path string)
	walk = func(c *Container, path string) {
		if matches(c, q) {
			out = append(out, Match{Path: path, Container: copyContainer(c)})
		}
		for _, name := range c.order {
			child := c.children[name]
			childPath := name
			if path != "" {
				childPath = path + "/" + name
			}
			walk(child, childPath)
		}
	}
	if q.Under != "" {
		segs, err := splitPath(q.Under)
		if err != nil {
			return nil, err
		}
		s := r.top.ShardFor(segs[0])
		s.RLock()
		start, err := lookupLocked(s, segs, q.Under)
		if err != nil {
			s.RUnlock()
			return nil, err
		}
		walk(start, strings.Trim(q.Under, "/"))
		s.RUnlock()
	} else {
		r.top.Range(func(name string, c *Container) bool {
			walk(c, name)
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func matches(c *Container, q Query) bool {
	if q.Type != "" && c.Type != q.Type {
		return false
	}
	if q.HasProp != "" {
		if _, ok := c.Prop(q.HasProp); !ok {
			return false
		}
	}
	for _, want := range q.PropEquals {
		found := false
		for _, v := range c.PropAll(want.Name) {
			if v == want.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Export renders the whole hierarchy as one self-describing XML document.
// Top-level subtrees are rendered one shard lock at a time, in insertion
// order, so the document is weakly consistent under concurrent writes: the
// ordered top-level list and the sharded map are guarded separately, and a
// container deleted between the list walk and the map load is simply
// skipped (never rendered empty, never a panic). Each rendered subtree is
// internally consistent, but two subtrees may reflect different instants.
func (r *Registry) Export() string {
	el := xmlutil.New("container").SetAttr("name", "").SetAttr("type", "root")
	for _, name := range r.topOrder() {
		s := r.top.ShardFor(name)
		s.RLock()
		if c, ok := s.Get(name); ok {
			el.Add(c.Element())
		}
		s.RUnlock()
	}
	return el.Render()
}

// Import replaces the hierarchy from an exported document. The swap is
// per-top-level-container, not globally atomic: a reader racing an Import
// may see a mix of old and new subtrees, and the durability record of an
// Import racing per-container writers is likewise weakly ordered (the
// record is appended after the swap, with no global lock held).
func (r *Registry) Import(doc string) error {
	el, err := xmlutil.ParseString(doc)
	if err != nil {
		return fmt.Errorf("xmlregistry: %w", err)
	}
	root, err := containerFromElement(el)
	if err != nil {
		return err
	}
	r.top.Clear()
	r.ordMu.Lock()
	r.order = nil
	r.ordMu.Unlock()
	for _, name := range root.order {
		r.top.Store(name, root.children[name])
		r.addOrder(name)
	}
	return r.persist.Log(opImport, record{Doc: doc})
}

// --- SOAP service wrapper -------------------------------------------------

// ServiceNS is the namespace of the registry's SOAP interface.
const ServiceNS = "urn:gce:xmlregistry"

// def is the declarative operation table of the registry service.
func def(r *Registry) *rpc.Def {
	fail := func(code, format string, a ...interface{}) error {
		return soap.NewPortalError("XMLRegistry", code, format, a...)
	}
	return &rpc.Def{
		Name: "XMLRegistry",
		NS:   ServiceNS,
		Doc:  "Recursive self-describing XML container hierarchy for service metadata.",
		Ops: []rpc.Op{
			{
				Name: "put",
				In:   []wsdl.Param{rpc.Str("path"), rpc.Str("type"), rpc.XML("properties")},
				Out:  []wsdl.Param{rpc.Bool("ok")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					err := r.Put(in.Str("path"), in.Str("type"), propsFromElement(in.XML("properties")))
					if err != nil {
						return nil, fail(soap.ErrCodeBadRequest, "%v", err)
					}
					return rpc.Ret(true), nil
				},
			},
			{
				Name:       "get",
				Idempotent: true,
				In:         []wsdl.Param{rpc.Str("path")},
				Out:        []wsdl.Param{rpc.XML("container")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					c, err := r.Get(in.Str("path"))
					if err != nil {
						return nil, fail(soap.ErrCodeNoSuchResource, "%v", err)
					}
					return rpc.Ret(c.Element()), nil
				},
			},
			{
				Name: "delete",
				In:   []wsdl.Param{rpc.Str("path")},
				Out:  []wsdl.Param{rpc.Bool("ok")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					if err := r.Delete(in.Str("path")); err != nil {
						return nil, fail(soap.ErrCodeNoSuchResource, "%v", err)
					}
					return rpc.Ret(true), nil
				},
			},
			{
				Name:       "find",
				Idempotent: true,
				In:         []wsdl.Param{rpc.XML("query")},
				Out:        []wsdl.Param{rpc.XML("matches")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					qEl := in.XML("query")
					if qEl == nil {
						return nil, fail(soap.ErrCodeBadRequest, "missing query")
					}
					matches, err := r.Find(queryFromElement(qEl))
					if err != nil {
						return nil, fail(soap.ErrCodeBadRequest, "%v", err)
					}
					list := xmlutil.New("matches")
					for _, m := range matches {
						item := xmlutil.New("match").SetAttr("path", m.Path)
						item.Add(m.Container.Element())
						list.Add(item)
					}
					return rpc.Ret(list), nil
				},
			},
		},
	}
}

// Contract returns the WSDL interface of the registry service.
func Contract() *wsdl.Interface {
	return def(nil).Interface()
}

// propsElement renders properties for the wire.
func propsElement(props []Property) *xmlutil.Element {
	el := xmlutil.New("properties")
	for _, p := range props {
		el.Add(xmlutil.NewText("property", p.Value).SetAttr("name", p.Name))
	}
	return el
}

func propsFromElement(el *xmlutil.Element) []Property {
	if el == nil {
		return nil
	}
	var out []Property
	for _, p := range el.ChildrenNamed("property") {
		out = append(out, Property{Name: p.AttrDefault("name", ""), Value: p.Text})
	}
	return out
}

// queryElement renders a Query for the wire.
func queryElement(q Query) *xmlutil.Element {
	el := xmlutil.New("query")
	if q.Type != "" {
		el.AddText("type", q.Type)
	}
	if q.HasProp != "" {
		el.AddText("hasProp", q.HasProp)
	}
	if q.Under != "" {
		el.AddText("under", q.Under)
	}
	for _, p := range q.PropEquals {
		el.Add(xmlutil.NewText("propEquals", p.Value).SetAttr("name", p.Name))
	}
	return el
}

func queryFromElement(el *xmlutil.Element) Query {
	q := Query{
		Type:    el.ChildText("type"),
		HasProp: el.ChildText("hasProp"),
		Under:   el.ChildText("under"),
	}
	for _, p := range el.ChildrenNamed("propEquals") {
		q.PropEquals = append(q.PropEquals, Property{Name: p.AttrDefault("name", ""), Value: p.Text})
	}
	return q
}

// NewService wraps a Registry as a deployable core.Service built from
// the declarative operation table.
func NewService(r *Registry) *core.Service {
	return def(r).MustBuild()
}

// Client is a typed proxy to a remote XMLRegistry service.
type Client struct {
	c *core.Client
}

// NewClient binds a client to the registry endpoint.
func NewClient(t soap.Transport, endpoint string) *Client {
	return &Client{c: core.NewClient(t, endpoint, Contract())}
}

// Put creates or updates a container.
func (cl *Client) Put(path, typ string, props []Property) error {
	_, err := cl.c.CallText("put",
		soap.Str("path", path), soap.Str("type", typ), soap.XMLDoc("properties", propsElement(props)))
	return err
}

// Get fetches a container subtree.
func (cl *Client) Get(path string) (*Container, error) {
	doc, err := cl.c.CallXMLCopy("get", soap.Str("path", path))
	if err != nil {
		return nil, err
	}
	return containerFromElement(doc)
}

// Delete removes a container subtree.
func (cl *Client) Delete(path string) error {
	_, err := cl.c.CallText("delete", soap.Str("path", path))
	return err
}

// Find runs a structured query remotely.
func (cl *Client) Find(q Query) ([]Match, error) {
	doc, err := cl.c.CallXMLCopy("find", soap.XMLDoc("query", queryElement(q)))
	if err != nil {
		return nil, err
	}
	var out []Match
	for _, m := range doc.ChildrenNamed("match") {
		if len(m.Children) == 0 {
			continue
		}
		c, err := containerFromElement(m.Child("container"))
		if err != nil {
			return nil, err
		}
		out = append(out, Match{Path: m.AttrDefault("path", ""), Container: c})
	}
	return out, nil
}
