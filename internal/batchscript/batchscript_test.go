package batchscript

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/contextmgr"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/uddi"
	"repro/internal/wsdl"
)

func TestGeneratorsSupportDisjointDialects(t *testing.T) {
	iu, sdsc := NewIUGenerator(), NewSDSCGenerator()
	if !iu.Supports(grid.PBS) || !iu.Supports(grid.GRD) || iu.Supports(grid.LSF) {
		t.Errorf("IU supports %v", iu.Supported)
	}
	if !sdsc.Supports(grid.LSF) || !sdsc.Supports(grid.NQS) || sdsc.Supports(grid.PBS) {
		t.Errorf("SDSC supports %v", sdsc.Supported)
	}
	// Together they cover all four systems.
	covered := map[grid.SchedulerKind]bool{}
	for _, k := range append(iu.Supported, sdsc.Supported...) {
		covered[k] = true
	}
	for _, k := range grid.AllSchedulerKinds {
		if !covered[k] {
			t.Errorf("scheduler %s uncovered", k)
		}
	}
}

func TestGenerateUnsupported(t *testing.T) {
	iu := NewIUGenerator()
	_, err := iu.Generate(Request{Scheduler: grid.LSF, Executable: "/bin/date"})
	if err == nil || !strings.Contains(err.Error(), "does not support") {
		t.Errorf("err = %v", err)
	}
	if _, err := iu.Generate(Request{Scheduler: grid.PBS}); err == nil {
		t.Error("missing executable accepted")
	}
	if _, err := (&Generator{Group: "X", Supported: []grid.SchedulerKind{"FAKE"}}).
		Generate(Request{Scheduler: "FAKE", Executable: "/bin/date"}); err == nil {
		t.Error("unknown dialect accepted")
	}
}

// TestScriptRoundTripAllDialects is the generator↔scheduler contract: every
// generated script parses back (via the grid package's dialect parsers) to
// the job specification it encodes.
func TestScriptRoundTripAllDialects(t *testing.T) {
	gens := map[grid.SchedulerKind]*Generator{
		grid.PBS: NewIUGenerator(),
		grid.GRD: NewIUGenerator(),
		grid.LSF: NewSDSCGenerator(),
		grid.NQS: NewSDSCGenerator(),
	}
	for kind, g := range gens {
		req := Request{
			Scheduler:  kind,
			JobName:    "run42",
			Executable: "/usr/local/bin/matmul",
			Arguments:  []string{"512"},
			Stdin:      "input.dat",
			Queue:      "batch",
			Nodes:      8,
			WallTime:   90 * time.Minute,
		}
		script, err := g.Generate(req)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		spec, err := grid.ParseScript(kind, script)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", kind, err, script)
		}
		if spec.Name != "run42" || spec.Queue != "batch" || spec.Nodes != 8 {
			t.Errorf("%s: spec = %+v", kind, spec)
		}
		if spec.WallTime != 90*time.Minute {
			t.Errorf("%s: walltime = %s", kind, spec.WallTime)
		}
		if spec.Executable != "/usr/local/bin/matmul" || len(spec.Args) != 1 || spec.Args[0] != "512" {
			t.Errorf("%s: cmd = %q %q", kind, spec.Executable, spec.Args)
		}
		if spec.Stdin != "input.dat" {
			t.Errorf("%s: stdin = %q", kind, spec.Stdin)
		}
	}
}

// TestPropertyScriptRoundTrip fuzz-checks the same round trip.
func TestPropertyScriptRoundTrip(t *testing.T) {
	gen := &Generator{Group: "test", Supported: grid.AllSchedulerKinds}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		kind := grid.AllSchedulerKinds[r.Intn(len(grid.AllSchedulerKinds))]
		req := Request{
			Scheduler:  kind,
			JobName:    []string{"j1", "run-2", "x"}[r.Intn(3)],
			Executable: []string{"/bin/date", "/usr/local/bin/gaussian"}[r.Intn(2)],
			Queue:      []string{"", "batch", "all.q"}[r.Intn(3)],
			Nodes:      1 + r.Intn(64),
			// Minute granularity: LSF's -W directive is minutes.
			WallTime: time.Duration(1+r.Intn(600)) * time.Minute,
		}
		n := r.Intn(3)
		for i := 0; i < n; i++ {
			req.Arguments = append(req.Arguments, []string{"a", "128", "-v"}[r.Intn(3)])
		}
		script, err := gen.Generate(req)
		if err != nil {
			return false
		}
		spec, err := grid.ParseScript(kind, script)
		if err != nil {
			t.Logf("seed %d (%s): %v", seed, kind, err)
			return false
		}
		if spec.Name != req.JobName || spec.Queue != req.Queue ||
			spec.Executable != req.Executable || spec.WallTime != req.WallTime {
			t.Logf("seed %d (%s): spec %+v vs req %+v", seed, kind, spec, req)
			return false
		}
		// GRD omits -pe for single-node jobs; parser defaults to 1.
		if spec.Nodes != req.Nodes {
			t.Logf("seed %d (%s): nodes %d vs %d", seed, kind, spec.Nodes, req.Nodes)
			return false
		}
		if len(req.Arguments) == 0 {
			return len(spec.Args) == 0
		}
		return reflect.DeepEqual(spec.Args, req.Arguments)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestImplementationsCompatibleWithAgreedContract(t *testing.T) {
	// Both deployed services expose interfaces compatible with the agreed
	// one (they share the contract object here, but the check is what a
	// client would run against fetched WSDL).
	agreed := Contract()
	for _, g := range []*Generator{NewIUGenerator(), NewSDSCGenerator()} {
		svc := NewService(g)
		if err := svc.Validate(); err != nil {
			t.Errorf("%s: %v", g.Group, err)
		}
		if problems := wsdl.CheckCompatible(agreed, svc.Contract); len(problems) > 0 {
			t.Errorf("%s service incompatible with agreed contract: %v", g.Group, problems)
		}
	}
}

// TestCrossGroupInterop reproduces the paper's exercise end to end: both
// groups publish to UDDI; a client searches by queuing system, binds to
// whichever provider supports it, and generates a script through either
// service.
func TestCrossGroupInterop(t *testing.T) {
	reg := uddi.NewRegistry()
	iuBiz, _ := reg.SaveBusiness(uddi.BusinessEntity{Name: "IU Community Grids Lab"})
	sdscBiz, _ := reg.SaveBusiness(uddi.BusinessEntity{Name: "SDSC"})

	// Two SSPs, one per group.
	iuSSP := rpc.NewServer("iu-ssp", "loopback://iu")
	iuSSP.Provider("").MustRegister(NewService(NewIUGenerator()))
	sdscSSP := rpc.NewServer("sdsc-ssp", "loopback://sdsc")
	sdscSSP.Provider("").MustRegister(NewService(NewSDSCGenerator()))
	tr := rpc.Transport(iuSSP, sdscSSP)

	if _, err := PublishUDDI(reg, iuBiz.Key, "IU Batch Script Generator",
		"loopback://iu/BatchScriptGenerator", NewIUGenerator()); err != nil {
		t.Fatal(err)
	}
	if _, err := PublishUDDI(reg, sdscBiz.Key, "SDSC Batch Script Generator",
		"loopback://sdsc/BatchScriptGenerator", NewSDSCGenerator()); err != nil {
		t.Fatal(err)
	}

	// Both registered under one tModel.
	tm, ok := reg.TModelByName(TModelName)
	if !ok {
		t.Fatal("tModel missing")
	}
	all := reg.FindServiceByTModel(tm.Key)
	if len(all) != 2 {
		t.Fatalf("implementations = %d", len(all))
	}

	// Search for NQS support: only SDSC.
	nqs := reg.FindByParsedConvention("NQS")
	if len(nqs) != 1 || !strings.HasPrefix(nqs[0].Name, "SDSC") {
		t.Fatalf("NQS providers = %v", nqs)
	}
	// Bind to it and create a script (the cross-group flow).
	cl := NewClient(tr, nqs[0].Bindings[0].AccessPoint)
	script, err := cl.GenerateScript(Request{
		Scheduler: grid.NQS, JobName: "interop", Executable: "/bin/date", Nodes: 2, WallTime: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "#QSUB -r interop") {
		t.Errorf("script:\n%s", script)
	}
	// The same client code works against the IU provider for PBS.
	pbs := reg.FindByParsedConvention("PBS")
	cl2 := NewClient(tr, pbs[0].Bindings[0].AccessPoint)
	script, err = cl2.GenerateScript(Request{
		Scheduler: grid.PBS, JobName: "interop", Executable: "/bin/date", Nodes: 2, WallTime: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "#PBS -N interop") {
		t.Errorf("script:\n%s", script)
	}
	// Asking IU for LSF fails with a portal error naming the supported set.
	_, err = cl2.GenerateScript(Request{Scheduler: grid.LSF, Executable: "/bin/date"})
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeBadRequest || !strings.Contains(pe.Message, "GRD") {
		t.Errorf("err = %v", err)
	}
}

func TestServiceListAndSupports(t *testing.T) {
	p := core.NewProvider("ssp", "loopback://x")
	p.MustRegister(NewService(NewSDSCGenerator()))
	cl := NewClient(p.Loopback(), "x")
	scheds, err := cl.ListSchedulers()
	if err != nil || len(scheds) != 2 || scheds[0] != "LSF" || scheds[1] != "NQS" {
		t.Errorf("schedulers = %v, %v", scheds, err)
	}
	ok, err := cl.SupportsScheduler("lsf") // case-insensitive
	if err != nil || !ok {
		t.Errorf("supports lsf = %v, %v", ok, err)
	}
	ok, err = cl.SupportsScheduler("PBS")
	if err != nil || ok {
		t.Errorf("supports PBS = %v, %v", ok, err)
	}
}

func TestBindWSDLCompatibilityGate(t *testing.T) {
	p := core.NewProvider("ssp", "http://provider.example.edu")
	svc := NewService(NewIUGenerator())
	p.MustRegister(svc)
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p.EndpointFor(svc)+"?wsdl", nil))
	good := rec.Body.String()
	if _, err := BindWSDL(nil, good); err != nil {
		t.Errorf("compatible WSDL rejected: %v", err)
	}
	// A drifted provider (renamed parameter) is rejected at bind time.
	drifted := strings.Replace(good, `name="scheduler"`, `name="queueSystem"`, 1)
	if _, err := BindWSDL(nil, drifted); err == nil || !strings.Contains(err.Error(), "not compatible") {
		t.Errorf("drifted WSDL err = %v", err)
	}
	if _, err := BindWSDL(nil, "garbage"); err == nil {
		t.Error("garbage WSDL accepted")
	}
}

func TestCoupledServiceRequiresContext(t *testing.T) {
	store := contextmgr.NewStore()
	p := core.NewProvider("ssp", "loopback://x")
	p.MustRegister(NewCoupledService(NewIUGenerator(), store))
	cl := core.NewClient(p.Loopback(), "x", CoupledContract())

	args := []soap.Value{
		soap.Str("user", "hotpage-user"), soap.Str("problem", "generic"), soap.Str("session", "tmp1"),
		soap.Str("scheduler", "PBS"), soap.Str("jobName", "j"), soap.Str("executable", "/bin/date"),
		soap.StrArray("arguments", nil), soap.Str("stdin", ""), soap.Str("queue", ""),
		soap.Int("nodes", 1), soap.Int("wallTimeSeconds", 60),
	}
	// Without a context: rejected (the HotPage-user problem).
	_, err := cl.CallText("generateScript", args...)
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeNoSuchResource || !strings.Contains(pe.Message, "placeholder") {
		t.Fatalf("err = %v", err)
	}
	// After creating the placeholder chain, generation succeeds and the
	// script is archived in the session.
	if err := store.CreatePlaceholder("hotpage-user", "generic", "tmp1"); err != nil {
		t.Fatal(err)
	}
	resp, release, err := cl.Call(context.Background(), "generateScript", args...)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if !strings.Contains(resp.ReturnText("script"), "#PBS") {
		t.Errorf("script = %q", resp.ReturnText("script"))
	}
	props, err := store.ListProps([]string{"hotpage-user", "generic", "tmp1"})
	if err != nil || len(props) == 0 {
		t.Errorf("session props = %v, %v (script not recorded)", props, err)
	}
}

func TestGeneratedScriptRunsOnTestbed(t *testing.T) {
	// Full stack: generate a script with the SDSC service, parse it with
	// the LSF dialect, submit to the simulated bluehorizon, and collect
	// output.
	g := grid.NewTestbed()
	script, err := NewSDSCGenerator().Generate(Request{
		Scheduler: grid.LSF, JobName: "e2e", Executable: "/bin/echo",
		Arguments: []string{"end", "to", "end"}, Queue: "normal", Nodes: 2, WallTime: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := grid.ParseScript(grid.LSF, script)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := g.Host("bluehorizon.sdsc.edu")
	id, err := h.Scheduler.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	h.Scheduler.Drain()
	job, _ := h.Scheduler.Status(id)
	if job.State != grid.StateCompleted || job.Result.Stdout != "end to end\n" {
		t.Errorf("job = %+v", job)
	}
}
