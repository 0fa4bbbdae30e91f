package appws

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/databind"
	"repro/internal/grid"
	"repro/internal/jobsub"
	"repro/internal/soap"
	"repro/internal/srb"
	"repro/internal/srbws"
)

// gaussianDescriptor is the canonical Application Web Service example (the
// paper names Gaussian as the application whose description "can be
// standard across portals").
func gaussianDescriptor() *Descriptor {
	return &Descriptor{
		Name:        "Gaussian",
		Version:     "98-A.7",
		Description: "Quantum chemistry package",
		Flags:       []string{"-direct"},
		Input:       FieldBinding{Name: "inputDeck", Service: "SRBService", Location: "/sdsc/home/mock/decks"},
		Output:      FieldBinding{Name: "logFile", Service: "SRBService", Location: "/sdsc/home/mock/archives"},
		Error:       FieldBinding{Name: "errFile", Service: "SRBService"},
		Services:    []string{"Globusrun", "SRBService"},
		Hosts: []HostBinding{
			{
				DNS: "bluehorizon.sdsc.edu", IP: "198.202.96.41",
				Executable: "/usr/local/bin/gaussian", WorkDir: "/scratch",
				Queue:      QueueBinding{Scheduler: grid.LSF, Queue: "normal", MaxNodes: 64, MaxWallTime: 4 * time.Hour},
				Parameters: []Param{{Name: "GAUSS_SCRDIR", Value: "/scratch/gauss"}},
			},
			{
				DNS: "modi4.ncsa.uiuc.edu", IP: "141.142.30.72",
				Executable: "/usr/local/bin/gaussian", WorkDir: "/scratch",
				Queue: QueueBinding{Scheduler: grid.PBS, Queue: "batch", MaxNodes: 32, MaxWallTime: 2 * time.Hour},
			},
		},
		Parameters: []Param{{Name: "license", Value: "site"}},
	}
}

func TestDescriptorXMLRoundTrip(t *testing.T) {
	d := gaussianDescriptor()
	el := d.Element()
	back, err := DescriptorFromElement(el)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "Gaussian" || back.Version != "98-A.7" {
		t.Errorf("basic = %+v", back)
	}
	if back.Input.Service != "SRBService" || back.Input.Location != "/sdsc/home/mock/decks" {
		t.Errorf("input = %+v", back.Input)
	}
	if len(back.Services) != 2 || len(back.Hosts) != 2 {
		t.Errorf("env = %v / %v", back.Services, back.Hosts)
	}
	h := back.Host("bluehorizon.sdsc.edu")
	if h == nil || h.Queue.Scheduler != grid.LSF || h.Queue.MaxWallTime != 4*time.Hour {
		t.Errorf("host = %+v", h)
	}
	if len(h.Parameters) != 1 || h.Parameters[0].Name != "GAUSS_SCRDIR" {
		t.Errorf("host params = %+v", h.Parameters)
	}
	if len(back.Parameters) != 1 || back.Parameters[0].Value != "site" {
		t.Errorf("generic params = %+v", back.Parameters)
	}
	// Round trip is stable.
	if back.Element().Render() != el.Render() {
		t.Error("descriptor XML not stable")
	}
}

func TestDescriptorValidation(t *testing.T) {
	if err := (&Descriptor{}).Validate(); err == nil {
		t.Error("empty descriptor accepted")
	}
	d := gaussianDescriptor()
	d.Hosts = nil
	if err := d.Validate(); err == nil {
		t.Error("hostless descriptor accepted")
	}
	d = gaussianDescriptor()
	d.Hosts[0].Executable = ""
	if err := d.Validate(); err == nil {
		t.Error("missing executable accepted")
	}
	d = gaussianDescriptor()
	d.Hosts[0].Queue.Scheduler = ""
	if err := d.Validate(); err == nil {
		t.Error("missing queue binding accepted")
	}
	if _, err := DescriptorFromElement(gaussianDescriptor().Element().Child("basicInformation")); err == nil {
		t.Error("wrong root accepted")
	}
}

func TestAdapterStagingAndLimits(t *testing.T) {
	d := gaussianDescriptor()
	a := NewAdapter(d)
	if _, _, err := a.RunRequest(); err == nil {
		t.Error("run without host accepted")
	}
	if err := a.ChooseHost("nowhere.edu"); err == nil {
		t.Error("unknown host accepted")
	}
	if err := a.ChooseHost("bluehorizon.sdsc.edu"); err != nil {
		t.Fatal(err)
	}
	if err := a.SetNodes(0); err == nil {
		t.Error("zero nodes accepted")
	}
	_ = a.SetNodes(128)
	if _, _, err := a.RunRequest(); err == nil {
		t.Error("over-wide job accepted (queue MaxNodes=64)")
	}
	_ = a.SetNodes(16)
	a.SetWallTime(8 * time.Hour)
	if _, _, err := a.RunRequest(); err == nil {
		t.Error("over-long job accepted (queue cap 4h)")
	}
	a.SetWallTime(time.Hour)
	a.SetArguments([]string{"-v"})
	a.SetInputDocument("deck")
	host, spec, err := a.RunRequest()
	if err != nil {
		t.Fatal(err)
	}
	if host != "bluehorizon.sdsc.edu" || spec.Executable != "/usr/local/bin/gaussian" ||
		spec.Queue != "normal" || spec.Nodes != 16 || spec.Stdin != "deck" {
		t.Errorf("spec = %+v", spec)
	}
	// Default walltime falls back to the queue bound.
	a2 := NewAdapter(d)
	_ = a2.ChooseHost("modi4.ncsa.uiuc.edu")
	_, spec2, err := a2.RunRequest()
	if err != nil || spec2.WallTime != 2*time.Hour {
		t.Errorf("defaulted walltime = %s, %v", spec2.WallTime, err)
	}
}

// TestAdapterVersusAccessorExplosion pins Section 5.2: the adapter facade
// is an order of magnitude smaller than the generated accessor interface.
func TestAdapterVersusAccessorExplosion(t *testing.T) {
	// Generated accessors for the full application schema (via databind on
	// a representative descriptor schema shape).
	schema := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="application"><xs:complexType><xs:sequence>
	    <xs:element name="name" type="xs:string"/>
	    <xs:element name="version" type="xs:string"/>
	    <xs:element name="description" type="xs:string"/>
	    <xs:element name="flag" type="xs:string" maxOccurs="unbounded" minOccurs="0"/>
	    <xs:element name="input" type="xs:string"/>
	    <xs:element name="output" type="xs:string"/>
	    <xs:element name="error" type="xs:string"/>
	    <xs:element name="service" type="xs:string" maxOccurs="unbounded" minOccurs="0"/>
	    <xs:element name="host"><xs:complexType><xs:sequence>
	      <xs:element name="dns" type="xs:string"/>
	      <xs:element name="ip" type="xs:string"/>
	      <xs:element name="executable" type="xs:string"/>
	      <xs:element name="workDir" type="xs:string"/>
	      <xs:element name="queue"><xs:complexType><xs:sequence>
	        <xs:element name="scheduler" type="xs:string"/>
	        <xs:element name="queueName" type="xs:string"/>
	        <xs:element name="maxNodes" type="xs:int"/>
	        <xs:element name="maxWallTimeSeconds" type="xs:int"/>
	      </xs:sequence></xs:complexType></xs:element>
	    </xs:sequence></xs:complexType></xs:element>
	  </xs:sequence></xs:complexType></xs:element>
	</xs:schema>`
	s, err := databind.ParseSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	generated := len(databind.AccessorNames(s.Root("application")))
	facade := len(AdapterMethodNames())
	if generated < 4*facade {
		t.Errorf("generated=%d facade=%d: facade should be at least 4x smaller", generated, facade)
	}
}

func testManager(t *testing.T) (*Manager, *grid.Grid) {
	t.Helper()
	g := grid.NewTestbed()
	g.Authorize("mock@SDSC.EDU")
	p := core.NewProvider("ssp", "loopback://grid")
	p.MustRegister(jobsub.NewGlobusrunService(g, "mock@SDSC.EDU"))
	gc := jobsub.NewGlobusrunClient(&soap.LoopbackTransport{Handler: p.Dispatch}, "loopback://grid/Globusrun")
	m := NewManager(gc)
	if err := m.Register(gaussianDescriptor()); err != nil {
		t.Fatal(err)
	}
	return m, g
}

func TestLifecycleSynchronous(t *testing.T) {
	m, _ := testManager(t)
	if names := m.Applications(); len(names) != 1 || names[0] != "Gaussian" {
		t.Fatalf("apps = %v", names)
	}
	inst, err := m.Prepare("Gaussian", "bluehorizon.sdsc.edu", 4, time.Hour, nil,
		"# HF\nbasis=4\n\nwater\n")
	if err != nil {
		t.Fatal(err)
	}
	if inst.State != StatePrepared {
		t.Fatalf("state = %s", inst.State)
	}
	if err := m.RunSynchronously(inst.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Instance(inst.ID)
	if got.State != StateCompleted || !strings.Contains(got.Stdout, "Normal termination") {
		t.Errorf("inst = %+v", got)
	}
	// Double run rejected.
	if err := m.RunSynchronously(inst.ID); err == nil {
		t.Error("re-run of completed instance accepted")
	}
	// Archive without SRB stores in memory.
	loc, err := m.Archive(inst.ID)
	if err != nil || !strings.HasPrefix(loc, "memory:") {
		t.Errorf("archive = %q, %v", loc, err)
	}
	got, _ = m.Instance(inst.ID)
	if got.State != StateArchived {
		t.Errorf("state = %s", got.State)
	}
	// Instance document carries run metadata.
	el := got.Element()
	if el.ChildText("application") != "Gaussian" || el.ChildText("outputLocation") == "" {
		t.Errorf("instance doc:\n%s", el.RenderIndent())
	}
}

func TestLifecycleAsyncWithPoll(t *testing.T) {
	m, g := testManager(t)
	inst, err := m.Prepare("Gaussian", "bluehorizon.sdsc.edu", 2, time.Hour, nil, "# HF\nbasis=20\n\nbig\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(inst.ID); err != nil {
		t.Fatal(err)
	}
	state, err := m.Poll(inst.ID)
	if err != nil || (state != StateQueued && state != StateRunning) {
		t.Errorf("state after submit = %s, %v", state, err)
	}
	h, _ := g.Host("bluehorizon.sdsc.edu")
	h.Scheduler.Drain()
	state, err = m.Poll(inst.ID)
	if err != nil || state != StateCompleted {
		t.Errorf("final state = %s, %v", state, err)
	}
	// Poll on finished instance is a no-op.
	state, _ = m.Poll(inst.ID)
	if state != StateCompleted {
		t.Errorf("idempotent poll = %s", state)
	}
	// Submit from wrong state rejected.
	if err := m.Submit(inst.ID); err == nil {
		t.Error("re-submit accepted")
	}
}

func TestPrepareErrors(t *testing.T) {
	m, _ := testManager(t)
	if _, err := m.Prepare("Unknown", "x", 1, 0, nil, ""); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := m.Prepare("Gaussian", "nowhere.edu", 1, 0, nil, ""); err == nil {
		t.Error("unknown host accepted")
	}
	if _, err := m.Prepare("Gaussian", "bluehorizon.sdsc.edu", 1000, 0, nil, ""); err == nil {
		t.Error("over-wide request accepted")
	}
	if err := m.Register(gaussianDescriptor()); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, err := m.Archive("ghost"); err == nil {
		t.Error("archive of unknown instance accepted")
	}
}

func TestArchiveThroughSRB(t *testing.T) {
	m, _ := testManager(t)
	// SRB service behind SOAP.
	broker := srb.NewBroker("sdsc")
	home := broker.CreateUser("mock")
	_ = broker.Mkdir("mock", home+"/archives")
	sp := core.NewProvider("srb-ssp", "loopback://srb")
	sp.MustRegister(srbws.NewService(broker, "mock"))
	m.SRB = srbws.NewClient(&soap.LoopbackTransport{Handler: sp.Dispatch}, "loopback://srb/SRBService")
	m.ArchiveCollection = home + "/archives"

	inst, _ := m.Prepare("Gaussian", "bluehorizon.sdsc.edu", 1, time.Hour, nil, "# HF\nbasis=3\n\nx\n")
	if err := m.RunSynchronously(inst.ID); err != nil {
		t.Fatal(err)
	}
	loc, err := m.Archive(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The output is retrievable from SRB at the descriptor-bound location.
	data, err := broker.Sget("mock", loc)
	if err != nil || !strings.Contains(data, "SCF Done") {
		t.Errorf("archived output = %q, %v", data, err)
	}
	// Archive from wrong state.
	inst2, _ := m.Prepare("Gaussian", "bluehorizon.sdsc.edu", 1, time.Hour, nil, "x")
	if _, err := m.Archive(inst2.ID); err == nil {
		t.Error("archive of prepared instance accepted")
	}
}

func TestSOAPServiceFullFlow(t *testing.T) {
	m, g := testManager(t)
	p := core.NewProvider("app-ssp", "loopback://app")
	p.MustRegister(NewService(m))
	cl := core.NewClient(&soap.LoopbackTransport{Handler: p.Dispatch}, "loopback://app/ApplicationService", Contract())

	names, err := cl.CallStrings("listApplications")
	if err != nil || len(names) != 1 {
		t.Fatalf("apps = %v, %v", names, err)
	}
	desc, err := cl.CallXMLCopy("describeApplication", soap.Str("name", "Gaussian"))
	if err != nil || desc.FindText("basicInformation/name") != "Gaussian" {
		t.Fatalf("describe = %v, %v", desc, err)
	}
	id, err := cl.CallText("prepare",
		soap.Str("application", "Gaussian"), soap.Str("host", "modi4.ncsa.uiuc.edu"),
		soap.Int("nodes", 2), soap.Int("wallTimeSeconds", 3600),
		soap.StrArray("arguments", nil), soap.Str("input", "# MP2\nbasis=5\n\nmol\n"))
	if err != nil {
		t.Fatal(err)
	}
	contact, err := cl.CallText("submit", soap.Str("instanceID", id))
	if err != nil || !strings.Contains(contact, "modi4") {
		t.Fatalf("submit = %q, %v", contact, err)
	}
	h, _ := g.Host("modi4.ncsa.uiuc.edu")
	h.Scheduler.Drain()
	state, err := cl.CallText("poll", soap.Str("instanceID", id))
	if err != nil || state != "COMPLETED" {
		t.Errorf("poll = %q, %v", state, err)
	}
	instDoc, err := cl.CallXMLCopy("getInstance", soap.Str("instanceID", id))
	if err != nil || instDoc.ChildText("state") != "COMPLETED" {
		t.Errorf("instance = %v, %v", instDoc, err)
	}
	loc, err := cl.CallText("archive", soap.Str("instanceID", id))
	if err != nil || loc == "" {
		t.Errorf("archive = %q, %v", loc, err)
	}
	ids, err := cl.CallStrings("listInstances")
	if err != nil || len(ids) != 1 || ids[0] != id {
		t.Errorf("instances = %v, %v", ids, err)
	}
	// Errors carry portal codes.
	_, err = cl.CallText("describeApplication", soap.Str("name", "Ghost"))
	if pe := soap.AsPortalError(err); pe == nil || pe.Code != soap.ErrCodeNoSuchResource {
		t.Errorf("err = %v", err)
	}
	_, err = cl.CallText("run", soap.Str("instanceID", id))
	if pe := soap.AsPortalError(err); pe == nil {
		t.Errorf("run from archived err = %v", err)
	}
}
