// Package contextmgr implements Gateway's Context Manager (Section 3.3):
// a service "for capturing and organizing the user's session (or context)
// for archival purposes", organised as a container structure "that can be
// mapped to a directory structure such as the Unix file system". Contexts
// nest: user contexts contain problem contexts, which contain session
// contexts; Gateway modules also live in contexts.
//
// The paper's critique is reproduced faithfully and then answered:
//
//   - MonolithContract is the "over 60 methods" interface the paper says
//     "HotPage and other teams will have no use for"; a test pins the
//     method count.
//   - ContextStoreContract and SessionArchiveContract are the "more
//     reasonable parts" the service should be broken into.
//   - Placeholder contexts — the artificial sessions the Gateway group had
//     to create for stateless HotPage users when the batch script
//     generator was decoupled — are CreatePlaceholder; the S3.3 benchmark
//     measures their overhead.
package contextmgr

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/shardmap"
)

// Level names the four context tiers.
type Level string

// The context hierarchy tiers.
const (
	LevelUser    Level = "User"
	LevelProblem Level = "Problem"
	LevelSession Level = "Session"
	LevelModule  Level = "Module"
)

// Levels lists the tiers in nesting order.
var Levels = []Level{LevelUser, LevelProblem, LevelSession, LevelModule}

// Depth returns the 1-based path length of a level (User=1 ... Module=4).
func (l Level) Depth() int {
	for i, lv := range Levels {
		if lv == l {
			return i + 1
		}
	}
	return 0
}

// node is one context in the tree.
type node struct {
	name     string
	props    map[string]string
	children map[string]*node
	created  time.Time
}

func newNode(name string, now time.Time) *node {
	return &node{name: name, props: map[string]string{}, children: map[string]*node{}, created: now}
}

func (n *node) clone() *node {
	cp := &node{name: n.name, props: map[string]string{}, children: map[string]*node{}, created: n.created}
	for k, v := range n.props {
		cp.props[k] = v
	}
	for k, c := range n.children {
		cp.children[k] = c.clone()
	}
	return cp
}

// Archive is one archived session snapshot.
type Archive struct {
	// ID is the archive identifier.
	ID string
	// User, Problem, Session locate the archived context.
	User    string
	Problem string
	Session string
	// When is the archival time.
	When time.Time

	snapshot *node
}

// Store is the context tree with archival, safe for concurrent use.
//
// The tree is partitioned by user: each user's whole subtree lives in the
// shard owning the user name and every path operation locks only that
// shard, so sessions of different users never contend. Archives live in
// their own sharded map keyed by archive ID. Cross-user operations (List
// of users, CountContexts, ExportDirectory) visit shards one at a time and
// are weakly consistent under concurrent writers: each user subtree is
// internally consistent, but subtrees mutated mid-walk may reflect
// different instants.
// With Persist attached, each tree mutation's record is appended inside the
// same shard-lock critical section as the mutation itself, and before it
// (persist.Commit), so per-user log order matches apply order, a failed
// append changes nothing, and a compaction dump (which takes shard read
// locks) never observes a mutation whose record it might lose.
// ImportDirectory holds no shard lock across its append, so it holds
// importMu instead, which the dump takes for reading. Records carry their
// timestamps, so replay reproduces creation and archival times exactly.
// Reads never touch the log.
type Store struct {
	users    *shardmap.Map[*node]
	archives *shardmap.Map[*Archive]
	seq      atomic.Int64
	now      atomic.Value // func() time.Time
	persist  *persist.Binding
	importMu sync.RWMutex // ImportDirectory (W) vs compaction dump (R)
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{
		users:    shardmap.New[*node](0),
		archives: shardmap.New[*Archive](0),
	}
	s.now.Store(time.Now)
	return s
}

// SetTimeSource overrides the clock.
func (s *Store) SetTimeSource(now func() time.Time) {
	s.now.Store(now)
}

func (s *Store) clock() time.Time {
	return s.now.Load().(func() time.Time)()
}

func validatePath(path []string) error {
	if len(path) == 0 || len(path) > len(Levels) {
		return fmt.Errorf("contextmgr: path depth %d out of range 1..%d", len(path), len(Levels))
	}
	for _, seg := range path {
		if seg == "" || strings.ContainsAny(seg, "/\n") {
			return fmt.Errorf("contextmgr: invalid context name %q", seg)
		}
	}
	return nil
}

func noContextErr(path []string, depth int) error {
	level := "context"
	if depth-1 < len(Levels) {
		level = strings.ToLower(string(Levels[depth-1]))
	}
	return fmt.Errorf("contextmgr: no %s context at %q", level, strings.Join(path[:depth], "/"))
}

// lookupLocked resolves a non-empty path inside its user's shard. The
// caller holds the shard's lock (read or write).
func lookupLocked(sh *shardmap.Shard[*node], path []string) (*node, error) {
	cur, ok := sh.Get(path[0])
	if !ok {
		return nil, noContextErr(path, 1)
	}
	for i, seg := range path[1:] {
		next, ok := cur.children[seg]
		if !ok {
			return nil, noContextErr(path, i+2)
		}
		cur = next
	}
	return cur, nil
}

// Create makes a context at path; all ancestors must already exist.
func (s *Store) Create(path []string) error {
	if err := validatePath(path); err != nil {
		return err
	}
	now := s.clock()
	sh := s.users.ShardFor(path[0])
	sh.Lock()
	defer sh.Unlock()
	if len(path) == 1 {
		if _, exists := sh.Get(path[0]); exists {
			return fmt.Errorf("contextmgr: context %q already exists", path[0])
		}
		return s.persist.Commit(opCreate, record{Path: path, At: now}, func() {
			sh.Put(path[0], newNode(path[0], now))
		})
	}
	parent, err := lookupLocked(sh, path[:len(path)-1])
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	if _, exists := parent.children[leaf]; exists {
		return fmt.Errorf("contextmgr: context %q already exists", strings.Join(path, "/"))
	}
	return s.persist.Commit(opCreate, record{Path: path, At: now}, func() {
		parent.children[leaf] = newNode(leaf, now)
	})
}

// Exists reports whether a context exists.
func (s *Store) Exists(path []string) bool {
	if len(path) == 0 {
		return true
	}
	sh := s.users.ShardFor(path[0])
	sh.RLock()
	defer sh.RUnlock()
	_, err := lookupLocked(sh, path)
	return err == nil
}

// Remove deletes a context and its subtree.
func (s *Store) Remove(path []string) error {
	if err := validatePath(path); err != nil {
		return err
	}
	sh := s.users.ShardFor(path[0])
	sh.Lock()
	defer sh.Unlock()
	if len(path) == 1 {
		if _, exists := sh.Get(path[0]); !exists {
			return fmt.Errorf("contextmgr: no context at %q", path[0])
		}
		return s.persist.Commit(opRemove, record{Path: path}, func() { sh.Delete(path[0]) })
	}
	parent, err := lookupLocked(sh, path[:len(path)-1])
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	if _, exists := parent.children[leaf]; !exists {
		return fmt.Errorf("contextmgr: no context at %q", strings.Join(path, "/"))
	}
	return s.persist.Commit(opRemove, record{Path: path}, func() { delete(parent.children, leaf) })
}

// List returns the sorted child names under path ([] lists users).
func (s *Store) List(path []string) ([]string, error) {
	if len(path) == 0 {
		var out []string
		s.users.Range(func(name string, _ *node) bool {
			out = append(out, name)
			return true
		})
		sort.Strings(out)
		return out, nil
	}
	sh := s.users.ShardFor(path[0])
	sh.RLock()
	defer sh.RUnlock()
	n, err := lookupLocked(sh, path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Rename changes a context's leaf name. Renaming a user context moves the
// subtree between top-level keys, which may live in different shards; both
// are locked in index order.
func (s *Store) Rename(path []string, newName string) error {
	if err := validatePath(append(path[:len(path)-1:len(path)-1], newName)); err != nil {
		return err
	}
	if len(path) == 1 {
		src, dst, unlock := s.users.LockPair(path[0], newName)
		defer unlock()
		n, exists := src.Get(path[0])
		if !exists {
			return fmt.Errorf("contextmgr: no context at %q", path[0])
		}
		if _, dup := dst.Get(newName); dup {
			return fmt.Errorf("contextmgr: context %q already exists", newName)
		}
		return s.persist.Commit(opRename, record{Path: path, Name: newName}, func() {
			src.Delete(path[0])
			n.name = newName
			dst.Put(newName, n)
		})
	}
	sh := s.users.ShardFor(path[0])
	sh.Lock()
	defer sh.Unlock()
	parent, err := lookupLocked(sh, path[:len(path)-1])
	if err != nil {
		return err
	}
	leaf := path[len(path)-1]
	n, exists := parent.children[leaf]
	if !exists {
		return fmt.Errorf("contextmgr: no context at %q", strings.Join(path, "/"))
	}
	if _, dup := parent.children[newName]; dup {
		return fmt.Errorf("contextmgr: context %q already exists", newName)
	}
	return s.persist.Commit(opRename, record{Path: path, Name: newName}, func() {
		delete(parent.children, leaf)
		n.name = newName
		parent.children[newName] = n
	})
}

// Copy duplicates a context subtree under the same parent. Copying a user
// context clones between top-level keys, locking both shards in index
// order.
func (s *Store) Copy(path []string, copyName string) error {
	if err := validatePath(append(path[:len(path)-1:len(path)-1], copyName)); err != nil {
		return err
	}
	if len(path) == 1 {
		src, dst, unlock := s.users.LockPair(path[0], copyName)
		defer unlock()
		n, exists := src.Get(path[0])
		if !exists {
			return fmt.Errorf("contextmgr: no context at %q", path[0])
		}
		if _, dup := dst.Get(copyName); dup {
			return fmt.Errorf("contextmgr: context %q already exists", copyName)
		}
		return s.persist.Commit(opCopy, record{Path: path, Name: copyName}, func() {
			cp := n.clone()
			cp.name = copyName
			dst.Put(copyName, cp)
		})
	}
	sh := s.users.ShardFor(path[0])
	sh.Lock()
	defer sh.Unlock()
	parent, err := lookupLocked(sh, path[:len(path)-1])
	if err != nil {
		return err
	}
	n, exists := parent.children[path[len(path)-1]]
	if !exists {
		return fmt.Errorf("contextmgr: no context at %q", strings.Join(path, "/"))
	}
	if _, dup := parent.children[copyName]; dup {
		return fmt.Errorf("contextmgr: context %q already exists", copyName)
	}
	return s.persist.Commit(opCopy, record{Path: path, Name: copyName}, func() {
		cp := n.clone()
		cp.name = copyName
		parent.children[copyName] = cp
	})
}

// withNode runs fn on the context at path under its shard's write lock.
func (s *Store) withNode(path []string, fn func(n *node) error) error {
	if len(path) == 0 {
		return fmt.Errorf("contextmgr: path depth 0 out of range 1..%d", len(Levels))
	}
	sh := s.users.ShardFor(path[0])
	sh.Lock()
	defer sh.Unlock()
	n, err := lookupLocked(sh, path)
	if err != nil {
		return err
	}
	return fn(n)
}

// readNode runs fn on the context at path under its shard's read lock.
func (s *Store) readNode(path []string, fn func(n *node) error) error {
	if len(path) == 0 {
		return fmt.Errorf("contextmgr: path depth 0 out of range 1..%d", len(Levels))
	}
	sh := s.users.ShardFor(path[0])
	sh.RLock()
	defer sh.RUnlock()
	n, err := lookupLocked(sh, path)
	if err != nil {
		return err
	}
	return fn(n)
}

// SetProp sets a property on a context.
func (s *Store) SetProp(path []string, name, value string) error {
	return s.withNode(path, func(n *node) error {
		return s.persist.Commit(opSetProp, record{Path: path, Name: name, Value: value}, func() {
			n.props[name] = value
		})
	})
}

// GetProp reads a property.
func (s *Store) GetProp(path []string, name string) (string, error) {
	var v string
	err := s.readNode(path, func(n *node) error {
		val, ok := n.props[name]
		if !ok {
			return fmt.Errorf("contextmgr: context %q has no property %q", strings.Join(path, "/"), name)
		}
		v = val
		return nil
	})
	return v, err
}

// RemoveProp deletes a property.
func (s *Store) RemoveProp(path []string, name string) error {
	return s.withNode(path, func(n *node) error {
		if _, ok := n.props[name]; !ok {
			return fmt.Errorf("contextmgr: context %q has no property %q", strings.Join(path, "/"), name)
		}
		return s.persist.Commit(opRmProp, record{Path: path, Name: name}, func() { delete(n.props, name) })
	})
}

// ListProps returns the sorted property names of a context.
func (s *Store) ListProps(path []string) ([]string, error) {
	var out []string
	err := s.readNode(path, func(n *node) error {
		out = make([]string, 0, len(n.props))
		for name := range n.props {
			out = append(out, name)
		}
		sort.Strings(out)
		return nil
	})
	return out, err
}

// ClearProps removes every property of a context.
func (s *Store) ClearProps(path []string) error {
	return s.withNode(path, func(n *node) error {
		return s.persist.Commit(opClearProps, record{Path: path}, func() { n.props = map[string]string{} })
	})
}

// CountChildren returns the number of direct children.
func (s *Store) CountChildren(path []string) (int, error) {
	if len(path) == 0 {
		return s.users.Len(), nil
	}
	count := 0
	err := s.readNode(path, func(n *node) error {
		count = len(n.children)
		return nil
	})
	return count, err
}

// CountContexts returns the total number of contexts in the store
// (weakly consistent: shards are counted one at a time).
func (s *Store) CountContexts() int {
	count := 0
	var walk func(n *node)
	walk = func(n *node) {
		count += len(n.children)
		for _, c := range n.children {
			walk(c)
		}
	}
	s.users.Range(func(_ string, n *node) bool {
		count++
		walk(n)
		return true
	})
	return count
}

// Created returns a context's creation time.
func (s *Store) Created(path []string) (time.Time, error) {
	var t time.Time
	err := s.readNode(path, func(n *node) error {
		t = n.created
		return nil
	})
	return t, err
}

// CreatePlaceholder makes an artificial user/problem/session chain for a
// stateless caller — the workaround the paper describes: "we were forced
// to create placeholder contexts in our SOAP wrappers ... Making this into
// an independent service introduced unnecessary overhead because we needed
// to create artificial contexts (sessions) for HotPage users." Existing
// segments are reused.
func (s *Store) CreatePlaceholder(user, problem, session string) error {
	for _, seg := range []string{user, problem, session} {
		if seg == "" || strings.ContainsAny(seg, "/\n") {
			return fmt.Errorf("contextmgr: invalid placeholder segment %q", seg)
		}
	}
	now := s.clock()
	sh := s.users.ShardFor(user)
	sh.Lock()
	defer sh.Unlock()
	return s.persist.Commit(opPlaceholder, record{User: user, Problem: problem, Session: session, At: now}, func() {
		cur, ok := sh.Get(user)
		if !ok {
			cur = newNode(user, now)
			cur.props["placeholder"] = "true"
			sh.Put(user, cur)
		}
		for _, seg := range []string{problem, session} {
			next, ok := cur.children[seg]
			if !ok {
				next = newNode(seg, now)
				next.props["placeholder"] = "true"
				cur.children[seg] = next
			}
			cur = next
		}
	})
}

// ArchiveSession snapshots a session context into the archive and returns
// the archive ID.
func (s *Store) ArchiveSession(user, problem, session string) (string, error) {
	id := fmt.Sprintf("arch-%d", s.seq.Add(1))
	if err := s.archiveAs(user, problem, session, id); err != nil {
		return "", err
	}
	return id, nil
}

// archiveAs snapshots the session under the given archive ID. The clone and
// the durability record happen under the user tree's read lock, so the
// record's log position matches the tree state it captured; the archive-map
// store and the record share the archive shard's write lock, so a
// compaction dump can never miss a stored archive whose record predates the
// log rotation. Lock order is tree shard (R) then archive shard (W);
// nothing acquires them in the other order.
func (s *Store) archiveAs(user, problem, session, id string) error {
	sh := s.users.ShardFor(user)
	sh.RLock()
	defer sh.RUnlock()
	n, err := lookupLocked(sh, []string{user, problem, session})
	if err != nil {
		return err
	}
	a := &Archive{
		ID: id, User: user, Problem: problem, Session: session,
		When: s.clock(), snapshot: n.clone(),
	}
	ash := s.archives.ShardFor(id)
	ash.Lock()
	defer ash.Unlock()
	return s.persist.Commit(opArchive, record{
		User: user, Problem: problem, Session: session, ID: id, At: a.When, Seq: s.seq.Load(),
	}, func() { ash.Put(id, a) })
}

// RestoreSession replaces (or recreates) a session context from an archive
// — "the user can recover and edit old sessions later".
func (s *Store) RestoreSession(id string) error {
	a, ok := s.archives.Load(id)
	if !ok {
		return fmt.Errorf("contextmgr: no archive %q", id)
	}
	sh := s.users.ShardFor(a.User)
	sh.Lock()
	defer sh.Unlock()
	problemNode, err := lookupLocked(sh, []string{a.User, a.Problem})
	if err != nil {
		return err
	}
	return s.persist.Commit(opRestore, record{ID: id}, func() {
		problemNode.children[a.Session] = a.snapshot.clone()
	})
}

// ListArchives returns archives for a user sorted by ID.
func (s *Store) ListArchives(user string) []Archive {
	var out []Archive
	s.archives.Range(func(_ string, a *Archive) bool {
		if a.User == user {
			cp := *a
			cp.snapshot = nil
			out = append(out, cp)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RemoveArchive deletes an archive.
func (s *Store) RemoveArchive(id string) error {
	ash := s.archives.ShardFor(id)
	ash.Lock()
	defer ash.Unlock()
	if _, ok := ash.Get(id); !ok {
		return fmt.Errorf("contextmgr: no archive %q", id)
	}
	return s.persist.Commit(opRmArchive, record{ID: id}, func() { ash.Delete(id) })
}

// ExportDirectory renders the tree as the directory-structure mapping the
// paper describes: one line per context path, properties as path:name=value
// lines, sorted. User subtrees are rendered one shard lock at a time, so
// the export is weakly consistent under concurrent writes.
func (s *Store) ExportDirectory() string {
	var users []string
	s.users.Range(func(name string, _ *node) bool {
		users = append(users, name)
		return true
	})
	sort.Strings(users)
	var lines []string
	var walk func(n *node, prefix string)
	walk = func(n *node, prefix string) {
		var props []string
		for k := range n.props {
			props = append(props, k)
		}
		sort.Strings(props)
		for _, k := range props {
			lines = append(lines, prefix+":"+k+"="+n.props[k])
		}
		var names []string
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p := prefix + "/" + name
			lines = append(lines, p)
			walk(n.children[name], p)
		}
	}
	for _, user := range users {
		sh := s.users.ShardFor(user)
		sh.RLock()
		if n, ok := sh.Get(user); ok {
			p := "/" + user
			lines = append(lines, p)
			walk(n, p)
		}
		sh.RUnlock()
	}
	return strings.Join(lines, "\n")
}

// ImportDirectory rebuilds a tree from ExportDirectory output. The swap is
// per-user, not globally atomic: a reader racing an Import may see a mix
// of old and new user subtrees, and the durability record of an Import
// racing per-user writers is likewise weakly ordered (the record is
// appended before the swap, with no shard lock held). importMu keeps a
// compaction dump from running between the append and the swap.
func (s *Store) ImportDirectory(data string) error {
	now := s.clock()
	root := newNode("", now)
	for _, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		pathPart := line
		propName, propValue := "", ""
		if i := strings.Index(line, ":"); i >= 0 {
			pathPart = line[:i]
			kv := line[i+1:]
			j := strings.Index(kv, "=")
			if j < 0 {
				return fmt.Errorf("contextmgr: bad property line %q", line)
			}
			propName, propValue = kv[:j], kv[j+1:]
		}
		segs := strings.Split(strings.TrimPrefix(pathPart, "/"), "/")
		if len(segs) > len(Levels) {
			return fmt.Errorf("contextmgr: path %q too deep", pathPart)
		}
		cur := root
		for _, seg := range segs {
			if seg == "" {
				return fmt.Errorf("contextmgr: bad path %q", pathPart)
			}
			next, ok := cur.children[seg]
			if !ok {
				next = newNode(seg, now)
				cur.children[seg] = next
			}
			cur = next
		}
		if propName != "" {
			cur.props[propName] = propValue
		}
	}
	s.importMu.Lock()
	defer s.importMu.Unlock()
	return s.persist.Commit(opImportDir, record{Data: data, At: now}, func() {
		s.users.Clear()
		for name, n := range root.children {
			s.users.Store(name, n)
		}
	})
}
