package portal

import (
	"strings"
	"testing"

	"repro/internal/batchscript"
	"repro/internal/contextmgr"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/jobsub"
	"repro/internal/srb"
	"repro/internal/srbws"
)

// fullShell wires the complete Figure 4 stack in-process: simulated grid +
// SRB behind SOAP services, all bound into one shell.
func fullShell(t *testing.T) (*Shell, *contextmgr.Store) {
	t.Helper()
	g := grid.NewTestbed()
	g.Authorize("cyoun@IU.EDU")
	broker := srb.NewBroker("sdsc")
	broker.CreateUser("cyoun")
	store := contextmgr.NewStore()
	_ = store.CreatePlaceholder("cyoun", "demo", "s1")

	ssp := core.NewProvider("portal-ssp", "loopback://ssp")
	ssp.MustRegister(jobsub.NewGlobusrunService(g, "cyoun@IU.EDU"))
	ssp.MustRegister(srbws.NewService(broker, "cyoun"))
	ssp.MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
	tr := ssp.Loopback()

	sh := NewStandardShell(Services{
		Script:    batchscript.NewClient(tr, "loopback://ssp/BatchScriptGenerator"),
		Globusrun: jobsub.NewGlobusrunClient(tr, "loopback://ssp/Globusrun"),
		SRB:       srbws.NewClient(tr, "loopback://ssp/SRBService"),
		Context:   store,
	})
	return sh, store
}

func TestTokenize(t *testing.T) {
	got, err := tokenize(`run host "&(executable=/bin/echo)(arguments=a b)" tail`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[2] != "&(executable=/bin/echo)(arguments=a b)" {
		t.Errorf("tokens = %q", got)
	}
	if _, err := tokenize(`broken "quote`); err == nil {
		t.Error("unterminated quote accepted")
	}
	got, _ = tokenize("  spaced   out  ")
	if len(got) != 2 {
		t.Errorf("tokens = %q", got)
	}
}

func TestHelpAndEcho(t *testing.T) {
	sh, _ := fullShell(t)
	out, err := sh.Run("help")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"genscript", "run", "srbput", "ctxset", "echo"} {
		if !strings.Contains(out, want) {
			t.Errorf("help missing %q:\n%s", want, out)
		}
	}
	out, err = sh.Run("echo hello portal")
	if err != nil || out != "hello portal\n" {
		t.Errorf("echo = %q, %v", out, err)
	}
	if len(sh.Commands()) < 8 {
		t.Errorf("commands = %v", sh.Commands())
	}
}

func TestRunErrors(t *testing.T) {
	sh, _ := fullShell(t)
	if _, err := sh.Run("nosuchcommand"); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("err = %v", err)
	}
	if _, err := sh.Run("echo a | | echo b"); err == nil {
		t.Error("empty stage accepted")
	}
	if _, err := sh.Run(`echo "unterminated`); err == nil {
		t.Error("bad quoting accepted")
	}
	if _, err := sh.Run("genscript PBS"); err == nil {
		t.Error("underspecified genscript accepted")
	}
	if _, err := sh.Run("run"); err == nil {
		t.Error("run without host accepted")
	}
	if _, err := sh.Run("run modi4.ncsa.uiuc.edu"); err == nil {
		t.Error("run without RSL accepted")
	}
	if _, err := sh.Run("genscript PBS batch NaN 10 /bin/date"); err == nil {
		t.Error("bad nodes accepted")
	}
}

// TestFigure4Pipeline is the architecture's signature flow: generate a
// script with the script service, submit it through the Globusrun service,
// and pipe the job output into SRB storage — three core services linked by
// pipes, none of them touched at the "system" level by the user.
func TestFigure4Pipeline(t *testing.T) {
	sh, _ := fullShell(t)
	out, err := sh.Run(
		`genscript PBS batch 2 10 /bin/echo computed on the grid` +
			` | submitscript modi4.ncsa.uiuc.edu PBS` +
			` | srbput /sdsc/home/cyoun/result.out`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "stored") {
		t.Errorf("pipeline out = %q", out)
	}
	// The job's stdout landed in SRB.
	got, err := sh.Run("srbget /sdsc/home/cyoun/result.out")
	if err != nil || got != "computed on the grid\n" {
		t.Errorf("stored data = %q, %v", got, err)
	}
	// And an ls shows it.
	ls, err := sh.Run("srbls /sdsc/home/cyoun")
	if err != nil || !strings.Contains(ls, "result.out") {
		t.Errorf("ls = %q, %v", ls, err)
	}
}

func TestContextCommandsInPipeline(t *testing.T) {
	sh, store := fullShell(t)
	// Store grid output as session state, then read it back.
	_, err := sh.Run(`run modi4.ncsa.uiuc.edu "&(executable=/bin/hostname)" | ctxset cyoun/demo/s1 lastOutput`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := store.GetProp([]string{"cyoun", "demo", "s1"}, "lastOutput")
	if err != nil || v != "modi4.ncsa.uiuc.edu\n" {
		t.Errorf("stored = %q, %v", v, err)
	}
	out, err := sh.Run("ctxget cyoun/demo/s1 lastOutput")
	if err != nil || out != "modi4.ncsa.uiuc.edu\n" {
		t.Errorf("ctxget = %q, %v", out, err)
	}
	if _, err := sh.Run("ctxget cyoun/demo/s1 missing"); err == nil {
		t.Error("missing property accepted")
	}
	if _, err := sh.Run("ctxset onlyuser"); err == nil {
		t.Error("underspecified ctxset accepted")
	}
}

func TestSchedulersCommand(t *testing.T) {
	sh, _ := fullShell(t)
	out, err := sh.Run("schedulers")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PBS") || !strings.Contains(out, "GRD") {
		t.Errorf("schedulers = %q", out)
	}
}

func TestServiceErrorsPropagate(t *testing.T) {
	sh, _ := fullShell(t)
	// The IU generator does not support LSF: the portal error surfaces
	// through the shell with the command name prefixed.
	_, err := sh.Run("genscript LSF normal 1 10 /bin/date")
	if err == nil || !strings.Contains(err.Error(), "genscript") {
		t.Errorf("err = %v", err)
	}
	_, err = sh.Run(`run ghost.example.edu "&(executable=/bin/date)"`)
	if err == nil {
		t.Error("unknown host accepted")
	}
	_, err = sh.Run("srbget /sdsc/home/cyoun/nothing")
	if err == nil {
		t.Error("missing SRB object accepted")
	}
}

func TestPartialShell(t *testing.T) {
	// A shell with no bound services only offers the builtins.
	sh := NewStandardShell(Services{})
	cmds := sh.Commands()
	if len(cmds) != 2 || cmds[0] != "echo" || cmds[1] != "help" {
		t.Errorf("commands = %v", cmds)
	}
}
