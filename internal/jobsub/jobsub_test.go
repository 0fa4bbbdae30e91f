package jobsub

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/soap"
	"repro/internal/webflow"
)

const testUser = "mock@SDSC.EDU"

func newFixture(t *testing.T) (*grid.Grid, *GlobusrunClient) {
	t.Helper()
	g := grid.NewTestbed()
	g.Authorize(testUser)
	p := core.NewProvider("sdsc-ssp", "loopback://sdsc")
	p.MustRegister(NewGlobusrunService(g, testUser))
	cl := NewGlobusrunClient(p.Loopback(), "loopback://sdsc/Globusrun")
	return g, cl
}

func TestRunPlainStrings(t *testing.T) {
	_, cl := newFixture(t)
	out, err := cl.Run("modi4.ncsa.uiuc.edu", "&(executable=/bin/hostname)(queue=debug)(maxWallTime=5)")
	if err != nil {
		t.Fatal(err)
	}
	if out != "modi4.ncsa.uiuc.edu\n" {
		t.Errorf("output = %q", out)
	}
}

func TestRunFailures(t *testing.T) {
	_, cl := newFixture(t)
	cases := []struct {
		name string
		host string
		rsl  string
		code string
	}{
		{"unknown host", "ghost.example.edu", "&(executable=/bin/date)", soap.ErrCodeNoSuchResource},
		{"bad rsl", "modi4.ncsa.uiuc.edu", "not rsl", soap.ErrCodeJobFailed},
		{"failing job", "modi4.ncsa.uiuc.edu", "&(executable=/bin/false)", soap.ErrCodeJobFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cl.Run(tc.host, tc.rsl)
			pe := soap.AsPortalError(err)
			if pe == nil || pe.Code != tc.code {
				t.Errorf("err = %v, want code %s", err, tc.code)
			}
		})
	}
}

func TestJobRequestDTDRoundTrip(t *testing.T) {
	jobs := []JobRequest{
		{Host: "modi4.ncsa.uiuc.edu", Spec: grid.JobSpec{
			Name: "j1", Executable: "/bin/echo", Args: []string{"a", "b"},
			Queue: "batch", Nodes: 4, WallTime: 30 * time.Minute, Stdin: "in.dat"}},
		{Host: "bluehorizon.sdsc.edu", Spec: grid.JobSpec{Executable: "/bin/date", Nodes: 1}},
	}
	parsed, err := ParseJobRequest(BuildJobRequest(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 {
		t.Fatalf("jobs = %d", len(parsed))
	}
	if parsed[0].Spec.Name != "j1" || parsed[0].Spec.Nodes != 4 ||
		parsed[0].Spec.WallTime != 30*time.Minute || parsed[0].Spec.Stdin != "in.dat" {
		t.Errorf("job0 = %+v", parsed[0])
	}
	if len(parsed[0].Spec.Args) != 2 || parsed[0].Spec.Args[1] != "b" {
		t.Errorf("args = %q", parsed[0].Spec.Args)
	}
	if parsed[1].Host != "bluehorizon.sdsc.edu" || parsed[1].Spec.Nodes != 1 {
		t.Errorf("job1 = %+v", parsed[1])
	}
}

func TestParseJobRequestErrors(t *testing.T) {
	if _, err := ParseJobRequest(BuildJobRequest(nil)); err == nil {
		t.Error("empty request accepted")
	}
	doc := BuildJobRequest([]JobRequest{{Host: "h", Spec: grid.JobSpec{Executable: "/bin/date"}}})
	doc.Name = "wrong"
	if _, err := ParseJobRequest(doc); err == nil {
		t.Error("wrong root accepted")
	}
	noHost := BuildJobRequest([]JobRequest{{Host: "h", Spec: grid.JobSpec{Executable: "/bin/date"}}})
	noHost.Children[0].Child("host").Text = ""
	if _, err := ParseJobRequest(noHost); err == nil {
		t.Error("missing host accepted")
	}
	badCount := BuildJobRequest([]JobRequest{{Host: "h", Spec: grid.JobSpec{Executable: "/bin/date", Nodes: 2}}})
	badCount.Children[0].Child("count").Text = "NaN"
	if _, err := ParseJobRequest(badCount); err == nil {
		t.Error("bad count accepted")
	}
}

func TestRunXMLMultiJob(t *testing.T) {
	_, cl := newFixture(t)
	jobs := []JobRequest{
		{Host: "modi4.ncsa.uiuc.edu", Spec: grid.JobSpec{Executable: "/bin/hostname"}},
		{Host: "bluehorizon.sdsc.edu", Spec: grid.JobSpec{Executable: "/bin/echo", Args: []string{"multi", "job"}}},
		{Host: "modi4.ncsa.uiuc.edu", Spec: grid.JobSpec{Executable: "/bin/false"}},
		{Host: "ghost.example.edu", Spec: grid.JobSpec{Executable: "/bin/date"}},
	}
	results, err := cl.RunXML(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].State != grid.StateCompleted || results[0].Stdout != "modi4.ncsa.uiuc.edu\n" {
		t.Errorf("r0 = %+v", results[0])
	}
	if results[1].Stdout != "multi job\n" {
		t.Errorf("r1 = %+v", results[1])
	}
	// Per-job failures are reported in-band, not as a fault for the batch.
	if results[2].State != grid.StateFailed || results[2].ExitCode != 1 {
		t.Errorf("r2 = %+v", results[2])
	}
	if results[3].State != grid.StateFailed || !strings.Contains(results[3].Error, "no gatekeeper") {
		t.Errorf("r3 = %+v", results[3])
	}
}

func TestSubmitAndStatus(t *testing.T) {
	g, cl := newFixture(t)
	contact, err := cl.Submit("modi4.ncsa.uiuc.edu", "&(executable=/bin/sleep)(arguments=120)")
	if err != nil {
		t.Fatal(err)
	}
	state, err := cl.Status("modi4.ncsa.uiuc.edu", contact)
	if err != nil || state != grid.StateRunning {
		t.Errorf("state = %s, %v", state, err)
	}
	h, _ := g.Host("modi4.ncsa.uiuc.edu")
	h.Scheduler.Drain()
	state, err = cl.Status("modi4.ncsa.uiuc.edu", contact)
	if err != nil || state != grid.StateCompleted {
		t.Errorf("final state = %s, %v", state, err)
	}
	if _, err := cl.Status("modi4.ncsa.uiuc.edu", "https://x/9999.modi4"); err == nil {
		t.Error("unknown contact accepted")
	}
}

func TestNoPrincipalRejected(t *testing.T) {
	g := grid.NewTestbed()
	p := core.NewProvider("ssp", "loopback://x")
	p.MustRegister(NewGlobusrunService(g, "")) // no default principal
	cl := NewGlobusrunClient(p.Loopback(), "loopback://x/Globusrun")
	_, err := cl.Run("modi4.ncsa.uiuc.edu", "&(executable=/bin/date)")
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeAuthFailed {
		t.Errorf("err = %v", err)
	}
}

func TestParseSchedulerCommand(t *testing.T) {
	rsl, err := ParseSchedulerCommand("-q batch -n 4 -w 30 /usr/local/bin/matmul 256")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := grid.ParseRSL(rsl)
	if err != nil {
		t.Fatal(err)
	}
	spec := parsed.JobSpec()
	if spec.Queue != "batch" || spec.Nodes != 4 || spec.WallTime != 30*time.Minute {
		t.Errorf("spec = %+v", spec)
	}
	if spec.Executable != "/usr/local/bin/matmul" || len(spec.Args) != 1 {
		t.Errorf("cmd = %q %q", spec.Executable, spec.Args)
	}
	for _, bad := range []string{"", "-q", "-n x /bin/date", "-w x /bin/date", "-q batch"} {
		if _, err := ParseSchedulerCommand(bad); err == nil {
			t.Errorf("ParseSchedulerCommand(%q) succeeded", bad)
		}
	}
}

// TestServiceComposition reproduces the paper's demonstration: "The
// interaction between the batch job submission Web Service and the
// Globusrun Web Service demonstrates a Web Service using another Web
// Service to perform a task." Both hops are real SOAP round trips.
func TestServiceComposition(t *testing.T) {
	_, globusrunClient := newFixture(t)
	batchProvider := core.NewProvider("batch-ssp", "loopback://batch")
	batchProvider.MustRegister(NewBatchJobService(globusrunClient))
	batchClient := NewBatchJobClient(batchProvider.Loopback(), "loopback://batch/BatchJobSubmission")

	out, err := batchClient.SubmitBatch("modi4.ncsa.uiuc.edu", "-q debug -w 5 /bin/echo composed services")
	if err != nil {
		t.Fatal(err)
	}
	if out != "composed services\n" {
		t.Errorf("output = %q", out)
	}
	// Errors from the inner service propagate with portal codes intact.
	_, err = batchClient.SubmitBatch("ghost.example.edu", "/bin/date")
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeNoSuchResource {
		t.Errorf("propagated err = %v", err)
	}
	// Parse errors are client errors.
	_, err = batchClient.SubmitBatch("modi4.ncsa.uiuc.edu", "-n NaN /bin/date")
	if pe := soap.AsPortalError(err); pe == nil || pe.Code != soap.ErrCodeBadRequest {
		t.Errorf("parse err = %v", err)
	}
}

// TestWebFlowBridge reproduces the IU flavour: SOAP service wrapping the
// legacy CORBA WebFlow client over a live ORB connection.
func TestWebFlowBridge(t *testing.T) {
	g := grid.NewTestbed()
	g.Authorize("cyoun@IU.EDU")
	// Legacy WebFlow server.
	wfServer := webflow.NewServer()
	wfServer.RegisterServant(webflow.JobSubmissionKey, &webflow.JobSubmissionModule{Grid: g})
	if _, err := wfServer.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer wfServer.Close()
	// Bridge.
	orb := webflow.InitORB()
	defer orb.Shutdown()
	svc, err := NewWebFlowBridgeService(orb, wfServer.IOR(webflow.JobSubmissionKey), "cyoun@IU.EDU")
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProvider("iu-ssp", "loopback://iu")
	p.MustRegister(svc)
	cl := core.NewClient(p.Loopback(), "loopback://iu/WebFlowJobSubmission", WebFlowBridgeContract())

	out, err := cl.CallText("runJob",
		soap.Str("host", "hpc-sge.iu.edu"),
		soap.Str("rsl", "&(executable=/bin/echo)(arguments=via webflow)"))
	if err != nil {
		t.Fatal(err)
	}
	if out != "via webflow\n" {
		t.Errorf("output = %q", out)
	}
	// Submit through the bridge.
	contact, err := cl.CallText("submitJob",
		soap.Str("host", "hpc-sge.iu.edu"),
		soap.Str("rsl", "&(executable=/bin/date)"))
	if err != nil || !strings.Contains(contact, "hpc-sge.iu.edu") {
		t.Errorf("contact = %q, %v", contact, err)
	}
	// ORB user exceptions become portal JobFailed errors.
	_, err = cl.CallText("runJob", soap.Str("host", "ghost.host"), soap.Str("rsl", "&(executable=/bin/date)"))
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeJobFailed {
		t.Errorf("bridge err = %v", err)
	}
	// Bad IOR fails at construction.
	if _, err := NewWebFlowBridgeService(orb, "not-an-ior", "x"); err == nil {
		t.Error("bad IOR accepted")
	}
}

// TestInPlaceResultsSurviveReuse keeps one RunXML answer, then makes 60
// more calls with different answers through the same client, which
// recycles the pooled response arena and message buffer. The kept answer
// must be unchanged: decoders copy only strings out of the arena.
func TestInPlaceResultsSurviveReuse(t *testing.T) {
	_, cl := newFixture(t)
	kept, err := cl.RunXML([]JobRequest{
		{Host: "modi4.ncsa.uiuc.edu", Spec: grid.JobSpec{Executable: "/bin/echo", Args: []string{"kept", "<&>"}}},
		{Host: "ghost.example.edu", Spec: grid.JobSpec{Executable: "/bin/date"}},
	})
	if err != nil || len(kept) != 2 {
		t.Fatalf("kept = %+v, %v", kept, err)
	}
	// The scheduler assigns the job ID; everything else is known. The ID is
	// cloned into fresh bytes before the arena is reused.
	want := []JobResult{
		{Index: 0, State: grid.StateCompleted, JobID: strings.Clone(kept[0].JobID), Stdout: "kept <&>\n"},
		{Index: 1, State: grid.StateFailed, Error: strings.Clone(kept[1].Error)},
	}
	if want[0].JobID == "" || !strings.Contains(want[1].Error, "no gatekeeper") {
		t.Fatalf("kept = %+v", kept)
	}
	for i := 0; i < 60; i++ {
		jobs := make([]JobRequest, 1+i%4)
		for j := range jobs {
			jobs[j] = JobRequest{Host: "bluehorizon.sdsc.edu",
				Spec: grid.JobSpec{Executable: "/bin/echo", Args: []string{strings.Repeat("x", 10*i+j)}}}
		}
		if _, err := cl.RunXML(jobs); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("kept answer changed:\n got %+v\nwant %+v", kept, want)
	}
}
