package contextmgr

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/soap"
)

func TestStoreHierarchy(t *testing.T) {
	s := NewStore()
	if err := s.Create([]string{"cyoun"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Create([]string{"cyoun", "cfd"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Create([]string{"cyoun", "cfd", "run1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Create([]string{"cyoun", "cfd", "run1", "solver"}); err != nil {
		t.Fatal(err)
	}
	// Ancestors required.
	if err := s.Create([]string{"ghost", "p", "s"}); err == nil {
		t.Error("orphan creation accepted")
	}
	// Depth cap at module level.
	if err := s.Create([]string{"cyoun", "cfd", "run1", "solver", "deeper"}); err == nil {
		t.Error("over-deep path accepted")
	}
	// Duplicates rejected.
	if err := s.Create([]string{"cyoun"}); err == nil {
		t.Error("duplicate accepted")
	}
	if !s.Exists([]string{"cyoun", "cfd"}) || s.Exists([]string{"nope"}) {
		t.Error("Exists wrong")
	}
	kids, err := s.List([]string{"cyoun"})
	if err != nil || len(kids) != 1 || kids[0] != "cfd" {
		t.Errorf("List = %v, %v", kids, err)
	}
	if n := s.CountContexts(); n != 4 {
		t.Errorf("CountContexts = %d", n)
	}
}

func TestStoreProperties(t *testing.T) {
	s := NewStore()
	_ = s.Create([]string{"u"})
	if err := s.SetProp([]string{"u"}, "email", "cyoun@indiana.edu"); err != nil {
		t.Fatal(err)
	}
	v, err := s.GetProp([]string{"u"}, "email")
	if err != nil || v != "cyoun@indiana.edu" {
		t.Errorf("GetProp = %q, %v", v, err)
	}
	if _, err := s.GetProp([]string{"u"}, "missing"); err == nil {
		t.Error("missing property returned")
	}
	_ = s.SetProp([]string{"u"}, "aaa", "1")
	names, _ := s.ListProps([]string{"u"})
	if len(names) != 2 || names[0] != "aaa" {
		t.Errorf("ListProps = %v", names)
	}
	if err := s.RemoveProp([]string{"u"}, "aaa"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveProp([]string{"u"}, "aaa"); err == nil {
		t.Error("double remove accepted")
	}
	if err := s.ClearProps([]string{"u"}); err != nil {
		t.Fatal(err)
	}
	if names, _ := s.ListProps([]string{"u"}); len(names) != 0 {
		t.Errorf("after clear = %v", names)
	}
}

func TestRenameAndCopy(t *testing.T) {
	s := NewStore()
	_ = s.Create([]string{"u"})
	_ = s.Create([]string{"u", "p"})
	_ = s.Create([]string{"u", "p", "s1"})
	_ = s.SetProp([]string{"u", "p", "s1"}, "solver", "implicit")

	if err := s.Copy([]string{"u", "p", "s1"}, "s2"); err != nil {
		t.Fatal(err)
	}
	v, err := s.GetProp([]string{"u", "p", "s2"}, "solver")
	if err != nil || v != "implicit" {
		t.Errorf("copied prop = %q, %v", v, err)
	}
	// Copies are independent.
	_ = s.SetProp([]string{"u", "p", "s2"}, "solver", "explicit")
	v, _ = s.GetProp([]string{"u", "p", "s1"}, "solver")
	if v != "implicit" {
		t.Error("copy aliased original")
	}
	if err := s.Rename([]string{"u", "p", "s1"}, "base"); err != nil {
		t.Fatal(err)
	}
	if s.Exists([]string{"u", "p", "s1"}) || !s.Exists([]string{"u", "p", "base"}) {
		t.Error("rename failed")
	}
	if err := s.Rename([]string{"u", "p", "base"}, "s2"); err == nil {
		t.Error("rename onto existing accepted")
	}
	if err := s.Copy([]string{"u", "p", "base"}, "s2"); err == nil {
		t.Error("copy onto existing accepted")
	}
	if err := s.Copy([]string{"u", "p", "ghost"}, "x"); err == nil {
		t.Error("copy of missing accepted")
	}
}

func TestArchiveRestore(t *testing.T) {
	s := NewStore()
	fixed := time.Date(2002, 6, 10, 10, 0, 0, 0, time.UTC)
	s.SetTimeSource(func() time.Time { return fixed })
	_ = s.Create([]string{"u"})
	_ = s.Create([]string{"u", "p"})
	_ = s.Create([]string{"u", "p", "sess"})
	_ = s.SetProp([]string{"u", "p", "sess"}, "input", "deck-v1")

	id, err := s.ArchiveSession("u", "p", "sess")
	if err != nil {
		t.Fatal(err)
	}
	// Mutate, then restore: the old state comes back.
	_ = s.SetProp([]string{"u", "p", "sess"}, "input", "deck-v2")
	if err := s.RestoreSession(id); err != nil {
		t.Fatal(err)
	}
	v, _ := s.GetProp([]string{"u", "p", "sess"}, "input")
	if v != "deck-v1" {
		t.Errorf("restored = %q", v)
	}
	// Archive list.
	archives := s.ListArchives("u")
	if len(archives) != 1 || archives[0].ID != id || !archives[0].When.Equal(fixed) {
		t.Errorf("archives = %+v", archives)
	}
	if len(s.ListArchives("other")) != 0 {
		t.Error("archives leaked across users")
	}
	// Restore after deleting the session recreates it.
	_ = s.Remove([]string{"u", "p", "sess"})
	if err := s.RestoreSession(id); err != nil {
		t.Fatal(err)
	}
	if !s.Exists([]string{"u", "p", "sess"}) {
		t.Error("restore did not recreate session")
	}
	if err := s.RemoveArchive(id); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreSession(id); err == nil {
		t.Error("restore of removed archive accepted")
	}
	if _, err := s.ArchiveSession("u", "p", "ghost"); err == nil {
		t.Error("archive of missing session accepted")
	}
}

func TestPlaceholder(t *testing.T) {
	s := NewStore()
	if err := s.CreatePlaceholder("hotpage-user", "generic", "tmp-1"); err != nil {
		t.Fatal(err)
	}
	if !s.Exists([]string{"hotpage-user", "generic", "tmp-1"}) {
		t.Error("placeholder chain missing")
	}
	v, err := s.GetProp([]string{"hotpage-user"}, "placeholder")
	if err != nil || v != "true" {
		t.Errorf("placeholder mark = %q, %v", v, err)
	}
	// Idempotent reuse of existing segments.
	if err := s.CreatePlaceholder("hotpage-user", "generic", "tmp-2"); err != nil {
		t.Fatal(err)
	}
	kids, _ := s.List([]string{"hotpage-user", "generic"})
	if len(kids) != 2 {
		t.Errorf("sessions = %v", kids)
	}
	if err := s.CreatePlaceholder("", "p", "s"); err == nil {
		t.Error("empty segment accepted")
	}
}

func TestExportImportDirectory(t *testing.T) {
	s := NewStore()
	_ = s.Create([]string{"u"})
	_ = s.Create([]string{"u", "p"})
	_ = s.Create([]string{"u", "p", "s"})
	_ = s.SetProp([]string{"u", "p", "s"}, "code", "gaussian")
	_ = s.SetProp([]string{"u"}, "email", "x@y")

	dir := s.ExportDirectory()
	if !strings.Contains(dir, "/u/p/s") || !strings.Contains(dir, "/u/p/s:code=gaussian") {
		t.Fatalf("export:\n%s", dir)
	}
	s2 := NewStore()
	if err := s2.ImportDirectory(dir); err != nil {
		t.Fatal(err)
	}
	if s2.ExportDirectory() != dir {
		t.Errorf("import/export not idempotent:\n%s\nvs\n%s", s2.ExportDirectory(), dir)
	}
	if err := s2.ImportDirectory("/a/b:broken"); err == nil {
		t.Error("bad property line accepted")
	}
	if err := s2.ImportDirectory("/a//b"); err == nil {
		t.Error("bad path accepted")
	}
}

// TestMonolithMethodCount pins the paper's headline observation: the
// Context Manager interface "contained over 60 methods".
func TestMonolithMethodCount(t *testing.T) {
	n := MethodCount(MonolithContract())
	if n <= 60 {
		t.Errorf("monolith has %d methods, paper says over 60", n)
	}
	// And the decomposition is an order of magnitude leaner.
	if cs := MethodCount(ContextStoreContract()); cs > 10 {
		t.Errorf("ContextStore has %d methods, want <= 10", cs)
	}
	if sa := MethodCount(SessionArchiveContract()); sa > 10 {
		t.Errorf("SessionArchive has %d methods, want <= 10", sa)
	}
}

func monolithFixture(t *testing.T) *core.Client {
	t.Helper()
	s := NewStore()
	p := core.NewProvider("ctx-ssp", "loopback://ctx")
	p.MustRegister(NewMonolithService(s))
	return core.NewClient(&soap.LoopbackTransport{Handler: p.Dispatch}, "x", MonolithContract())
}

func TestMonolithServiceRoundTrip(t *testing.T) {
	cl := monolithFixture(t)
	call := func(op string, params ...soap.Value) *soap.Response {
		t.Helper()
		resp, release, err := cl.Call(context.Background(), op, params...)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		t.Cleanup(release)
		return resp
	}
	call("createUserContext", soap.Str("user", "cyoun"))
	call("createProblemContext", soap.Str("user", "cyoun"), soap.Str("problem", "cfd"))
	call("createSessionContext", soap.Str("user", "cyoun"), soap.Str("problem", "cfd"), soap.Str("session", "run1"))
	call("createModuleContext", soap.Str("user", "cyoun"), soap.Str("problem", "cfd"),
		soap.Str("session", "run1"), soap.Str("module", "solver"))
	call("setSessionProperty", soap.Str("user", "cyoun"), soap.Str("problem", "cfd"),
		soap.Str("session", "run1"), soap.Str("name", "nodes"), soap.Str("value", "16"))
	resp := call("getSessionProperty", soap.Str("user", "cyoun"), soap.Str("problem", "cfd"),
		soap.Str("session", "run1"), soap.Str("name", "nodes"))
	if resp.ReturnText("value") != "16" {
		t.Errorf("value = %q", resp.ReturnText("value"))
	}
	resp = call("listProblemContexts", soap.Str("user", "cyoun"))
	v, _ := resp.Return("names")
	if len(v.Items) != 1 || v.Items[0].Text != "cfd" {
		t.Errorf("problems = %+v", v.Items)
	}
	resp = call("existsModuleContext", soap.Str("user", "cyoun"), soap.Str("problem", "cfd"),
		soap.Str("session", "run1"), soap.Str("module", "solver"))
	if resp.ReturnText("exists") != "true" {
		t.Error("module should exist")
	}
	resp = call("countUserChildren", soap.Str("user", "cyoun"))
	if resp.ReturnText("count") != "1" {
		t.Errorf("children = %q", resp.ReturnText("count"))
	}
	// Archive over SOAP.
	resp = call("archiveSession", soap.Str("user", "cyoun"), soap.Str("problem", "cfd"), soap.Str("session", "run1"))
	id := resp.ReturnText("archiveID")
	if id == "" {
		t.Fatal("no archive ID")
	}
	call("restoreSession", soap.Str("archiveID", id))
	doc, err := cl.CallXMLCopy("listArchives", soap.Str("user", "cyoun"))
	if err != nil || len(doc.ChildrenNamed("archive")) != 1 {
		t.Errorf("archives = %v, %v", doc, err)
	}
	info, err := cl.CallXMLCopy("getArchiveInfo", soap.Str("archiveID", id))
	if err != nil || info.ChildText("session") != "run1" {
		t.Errorf("info = %v, %v", info, err)
	}
	// Export/import over SOAP.
	dir, err := cl.CallText("exportContexts")
	if err != nil || !strings.Contains(dir, "/cyoun/cfd/run1/solver") {
		t.Errorf("export = %q, %v", dir, err)
	}
	call("importContexts", soap.Str("directory", dir))
	resp = call("countContexts")
	if resp.ReturnText("count") != "4" {
		t.Errorf("count after reimport = %q", resp.ReturnText("count"))
	}
	// Errors carry portal codes.
	_, err = cl.CallText("getUserProperty", soap.Str("user", "ghost"), soap.Str("name", "x"))
	if pe := soap.AsPortalError(err); pe == nil || pe.Code != soap.ErrCodeNoSuchResource {
		t.Errorf("err = %v", err)
	}
	_, err = cl.CallText("createUserContext", soap.Str("user", "cyoun"))
	if pe := soap.AsPortalError(err); pe == nil || pe.Code != soap.ErrCodeBadRequest {
		t.Errorf("dup err = %v", err)
	}
	_, err = cl.CallText("getArchiveInfo", soap.Str("archiveID", "arch-999"))
	if soap.AsPortalError(err) == nil {
		t.Errorf("ghost archive err = %v", err)
	}
}

func TestDecomposedServices(t *testing.T) {
	s := NewStore()
	p := core.NewProvider("ctx-ssp", "loopback://ctx")
	p.MustRegister(NewContextStoreService(s))
	p.MustRegister(NewSessionArchiveService(s))
	tr := &soap.LoopbackTransport{Handler: p.Dispatch}
	store := core.NewClient(tr, "x", ContextStoreContract())
	arch := core.NewClient(tr, "x", SessionArchiveContract())

	if _, err := arch.CallText("placeholder", soap.Str("user", "mock"), soap.Str("problem", "generic"), soap.Str("session", "s1")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CallText("setProperty", soap.StrArray("path", []string{"mock", "generic", "s1"}),
		soap.Str("name", "scheduler"), soap.Str("value", "LSF")); err != nil {
		t.Fatal(err)
	}
	resp, release, err := store.Call(context.Background(), "getProperty", soap.StrArray("path", []string{"mock", "generic", "s1"}), soap.Str("name", "scheduler"))
	defer release()
	if err != nil || resp.ReturnText("value") != "LSF" {
		t.Errorf("value = %q, %v", resp.ReturnText("value"), err)
	}
	r2, release2, err := arch.Call(context.Background(), "archive", soap.Str("user", "mock"), soap.Str("problem", "generic"), soap.Str("session", "s1"))
	defer release2()
	if err != nil || r2.ReturnText("archiveID") == "" {
		t.Errorf("archive = %v, %v", r2, err)
	}
	if _, err := arch.CallText("remove", soap.Str("archiveID", "arch-99")); soap.AsPortalError(err) == nil {
		t.Errorf("ghost remove err = %v", err)
	}
	resp, release, err = store.Call(context.Background(), "exists", soap.StrArray("path", []string{"mock", "generic", "s1"}))
	defer release()
	if err != nil || resp.ReturnText("exists") != "true" {
		t.Errorf("exists = %v, %v", resp, err)
	}
	if _, err := store.CallText("list", soap.StrArray("path", []string{"mock"})); err != nil {
		t.Error(err)
	}
	if _, err := store.CallText("remove", soap.StrArray("path", []string{"mock", "generic", "s1"})); err != nil {
		t.Error(err)
	}
}

func TestValidatePathRejections(t *testing.T) {
	s := NewStore()
	if err := s.Create(nil); err == nil {
		t.Error("empty path accepted")
	}
	if err := s.Create([]string{"a/b"}); err == nil {
		t.Error("slash in name accepted")
	}
	if err := s.Create([]string{""}); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Create([]string{"a", "b", "c", "d", "e"}); err == nil {
		t.Error("five-level path accepted")
	}
}

func TestLevelDepth(t *testing.T) {
	if LevelUser.Depth() != 1 || LevelModule.Depth() != 4 {
		t.Error("depths wrong")
	}
	if Level("Bogus").Depth() != 0 {
		t.Error("unknown level depth should be 0")
	}
}
