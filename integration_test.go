package repro

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/appws"
	"repro/internal/authsvc"
	"repro/internal/batchscript"
	"repro/internal/contextmgr"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/gss"
	"repro/internal/jobsub"
	"repro/internal/portal"
	"repro/internal/portlet"
	"repro/internal/schemawizard"
	"repro/internal/soap"
	"repro/internal/srb"
	"repro/internal/srbws"
	"repro/internal/uddi"
	"repro/internal/wsil"
	"repro/internal/xmlregistry"
)

// TestGCETestbed reproduces the whole paper as one integration scenario:
// two portal groups deploy their services over real HTTP, register in
// UDDI, secure the SDSC data services with the Figure 2 authentication
// flow, and a Gateway user drives an application run whose artifacts land
// in SRB and in the session archive.
func TestGCETestbed(t *testing.T) {
	// ---- Shared grid + realm -------------------------------------------------
	testbed := grid.NewTestbed()
	testbed.Authorize("cyoun@GRID.IU.EDU")
	kdc := gss.NewKDC("GRID.IU.EDU")
	kdc.AddPrincipal("cyoun", "hunter2")
	kdc.AddPrincipal("authsvc/grids.iu.edu", "keytab-secret")
	keytab, err := kdc.Keytab("authsvc/grids.iu.edu")
	if err != nil {
		t.Fatal(err)
	}
	authService := authsvc.NewService(keytab)

	// ---- IU deployment: script generation + Globusrun + contexts -------------
	store := contextmgr.NewStore()
	iuSSP := core.NewProvider("iu-ssp", "placeholder")
	iuSSP.MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
	iuSSP.MustRegister(jobsub.NewGlobusrunService(testbed, "cyoun@GRID.IU.EDU"))
	iuSSP.MustRegister(contextmgr.NewContextStoreService(store))
	iuSSP.MustRegister(contextmgr.NewSessionArchiveService(store))
	iuServer := httptest.NewServer(iuSSP)
	defer iuServer.Close()
	iuSSP.BaseURL = iuServer.URL

	// ---- SDSC deployment: script generation + SRB, SAML-protected ------------
	broker := srb.NewBroker("sdsc")
	home := broker.CreateUser("cyoun")
	authSSP := core.NewProvider("auth-ssp", "placeholder")
	authSSP.MustRegister(authsvc.NewSOAPService(authService))
	authServer := httptest.NewServer(authSSP)
	defer authServer.Close()
	httpTr := &soap.HTTPTransport{Client: authServer.Client()}
	authClient := authsvc.NewClient(httpTr, authServer.URL+"/AuthenticationService")

	sdscSSP := core.NewProvider("sdsc-ssp", "placeholder")
	sdscSSP.Use(authsvc.RequireAssertion(authClient))
	sdscSSP.MustRegister(batchscript.NewService(batchscript.NewSDSCGenerator()))
	sdscSSP.MustRegister(srbws.NewService(broker, ""))
	sdscServer := httptest.NewServer(sdscSSP)
	defer sdscServer.Close()
	sdscSSP.BaseURL = sdscServer.URL

	// ---- Discovery: UDDI + the proposed XML registry + WSIL ------------------
	reg := uddi.NewRegistry()
	iuBiz, _ := reg.SaveBusiness(uddi.BusinessEntity{Name: "IU Community Grids Lab"})
	sdscBiz, _ := reg.SaveBusiness(uddi.BusinessEntity{Name: "SDSC"})
	if _, err := batchscript.PublishUDDI(reg, iuBiz.Key, "IU Batch Script Generator",
		iuServer.URL+"/BatchScriptGenerator", batchscript.NewIUGenerator()); err != nil {
		t.Fatal(err)
	}
	if _, err := batchscript.PublishUDDI(reg, sdscBiz.Key, "SDSC Batch Script Generator",
		sdscServer.URL+"/BatchScriptGenerator", batchscript.NewSDSCGenerator()); err != nil {
		t.Fatal(err)
	}
	xreg := xmlregistry.NewRegistry()
	for _, pub := range []struct {
		path, endpoint string
		scheds         []string
	}{
		{"portals/iu/bsg", iuServer.URL + "/BatchScriptGenerator", []string{"PBS", "GRD"}},
		{"portals/sdsc/bsg", sdscServer.URL + "/BatchScriptGenerator", []string{"LSF", "NQS"}},
	} {
		props := []xmlregistry.Property{{Name: "endpoint", Value: pub.endpoint}}
		for _, s := range pub.scheds {
			props = append(props, xmlregistry.Property{Name: "supportedScheduler", Value: s})
		}
		if err := xreg.Put(pub.path, "service", props); err != nil {
			t.Fatal(err)
		}
	}
	inspection := wsil.NewPublisher()
	for _, svc := range iuSSP.Services() {
		inspection.AddService(wsil.ServiceEntry{
			Name: svc.Contract.Name, WSDLLocation: iuSSP.EndpointFor(svc) + "?wsdl"})
	}
	wsilServer := httptest.NewServer(inspection)
	defer wsilServer.Close()

	// ---- Figure 2 login -------------------------------------------------------
	session, err := authsvc.Login(kdc, "cyoun", "hunter2", "authsvc/grids.iu.edu",
		authClient.EstablishSession, nil)
	if err != nil {
		t.Fatal(err)
	}

	// ---- Cross-group script generation via discovery --------------------------
	// The user needs an LSF script: UDDI says SDSC; the SDSC SSP demands a
	// SAML assertion.
	lsfProviders := reg.FindByParsedConvention("LSF")
	if len(lsfProviders) != 1 || !strings.HasPrefix(lsfProviders[0].Name, "SDSC") {
		t.Fatalf("LSF providers = %v", lsfProviders)
	}
	sdscScript := batchscript.NewClient(httpTr, lsfProviders[0].Bindings[0].AccessPoint)
	if _, err := sdscScript.GenerateScript(batchscript.Request{
		Scheduler: grid.LSF, Executable: "/bin/date"}); err == nil {
		t.Fatal("unauthenticated call to protected SDSC SSP succeeded")
	}
	sdscScript.Use(session.Interceptor())
	script, err := sdscScript.GenerateScript(batchscript.Request{
		Scheduler: grid.LSF, JobName: "testbed", Executable: "/bin/echo",
		Arguments: []string{"gce", "testbed"}, Queue: "normal", Nodes: 2, WallTime: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(script, "#BSUB -J testbed") {
		t.Fatalf("script:\n%s", script)
	}
	// The typed registry finds the same provider with an exact query.
	matches, err := xreg.Find(xmlregistry.Query{
		Type:       "service",
		PropEquals: []xmlregistry.Property{{Name: "supportedScheduler", Value: "LSF"}},
	})
	if err != nil || len(matches) != 1 || matches[0].Path != "portals/sdsc/bsg" {
		t.Fatalf("xmlregistry matches = %v, %v", matches, err)
	}

	// ---- Run the script through IU's Globusrun over HTTP ----------------------
	globusrun := jobsub.NewGlobusrunClient(httpTr, iuServer.URL+"/Globusrun")
	spec, err := grid.ParseScript(grid.LSF, script)
	if err != nil {
		t.Fatal(err)
	}
	out, err := globusrun.Run("bluehorizon.sdsc.edu", grid.FormatRSL(spec))
	if err != nil {
		t.Fatal(err)
	}
	if out != "gce testbed\n" {
		t.Fatalf("job output = %q", out)
	}

	// ---- Store the output in SRB (authenticated) and record the session -------
	srbClient := srbws.NewClient(httpTr, sdscServer.URL+"/SRBService")
	srbClient.Use(session.Interceptor())
	if err := srbClient.Put(home+"/testbed.out", out, ""); err != nil {
		t.Fatal(err)
	}
	archClient := core.NewClient(httpTr, iuServer.URL+"/SessionArchive", contextmgr.SessionArchiveContract())
	if _, err := archClient.CallText("placeholder",
		soap.Str("user", "cyoun"), soap.Str("problem", "gce"), soap.Str("session", "testbed-1")); err != nil {
		t.Fatal(err)
	}
	storeClient := core.NewClient(httpTr, iuServer.URL+"/ContextStore", contextmgr.ContextStoreContract())
	if _, err := storeClient.CallText("setProperty",
		soap.StrArray("path", []string{"cyoun", "gce", "testbed-1"}),
		soap.Str("name", "outputLocation"), soap.Str("value", home+"/testbed.out")); err != nil {
		t.Fatal(err)
	}
	resp, release, err := archClient.Call(context.Background(), "archive",
		soap.Str("user", "cyoun"), soap.Str("problem", "gce"), soap.Str("session", "testbed-1"))
	defer release()
	if err != nil || resp.ReturnText("archiveID") == "" {
		t.Fatalf("archive = %v, %v", resp, err)
	}

	// ---- Verify the artifacts end to end ---------------------------------------
	stored, err := srbClient.Get(home + "/testbed.out")
	if err != nil || stored != "gce testbed\n" {
		t.Errorf("SRB copy = %q, %v", stored, err)
	}
	loc, err := store.GetProp([]string{"cyoun", "gce", "testbed-1"}, "outputLocation")
	if err != nil || loc != home+"/testbed.out" {
		t.Errorf("context record = %q, %v", loc, err)
	}
	// WSIL crawl finds the IU services.
	entries, err := wsil.Crawl(wsilServer.URL, 1, wsil.FetchHTTP(wsilServer.Client()))
	if err != nil || len(entries) != 4 {
		t.Errorf("wsil entries = %v, %v", entries, err)
	}
}

// TestPortalShellOverHTTP runs the Figure 4 shell against services bound
// over real HTTP rather than the loopback transport.
func TestPortalShellOverHTTP(t *testing.T) {
	testbed := grid.NewTestbed()
	testbed.Authorize("shell@GRID")
	broker := srb.NewBroker("sdsc")
	broker.CreateUser("shell")
	ssp := core.NewProvider("ssp", "placeholder")
	ssp.MustRegister(jobsub.NewGlobusrunService(testbed, "shell@GRID"))
	ssp.MustRegister(srbws.NewService(broker, "shell"))
	ssp.MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
	server := httptest.NewServer(ssp)
	defer server.Close()
	tr := &soap.HTTPTransport{Client: server.Client()}

	sh := portal.NewStandardShell(portal.Services{
		Script:    batchscript.NewClient(tr, server.URL+"/BatchScriptGenerator"),
		Globusrun: jobsub.NewGlobusrunClient(tr, server.URL+"/Globusrun"),
		SRB:       srbws.NewClient(tr, server.URL+"/SRBService"),
	})
	out, err := sh.Run(`genscript GRD all.q 2 10 /bin/echo over http` +
		` | submitscript hpc-sge.iu.edu GRD` +
		` | srbput /sdsc/home/shell/http.out`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "stored 10 bytes") {
		t.Errorf("pipeline = %q", out)
	}
	got, err := sh.Run("srbget /sdsc/home/shell/http.out")
	if err != nil || got != "over http\n" {
		t.Errorf("stored = %q, %v", got, err)
	}
}

// TestWizardToGridFlow connects Figure 3 to the grid: a schema-wizard
// form submission becomes an application instance that runs and archives.
func TestWizardToGridFlow(t *testing.T) {
	const schema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="run"><xs:complexType><xs:sequence>
	    <xs:element name="n" type="xs:int" default="64"/>
	    <xs:element name="nodes" type="xs:int" default="2"/>
	  </xs:sequence></xs:complexType></xs:element></xs:schema>`
	parser := &schemawizard.SchemaParser{Fetch: func(string) (string, error) { return schema, nil }}
	app, err := parser.Parse("mem://run.xsd", "matmul", "run")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := schemawizard.ParseForm(app.Root, url.Values{
		"run.n": {"128"}, "run.nodes": {"4"},
	})
	if err != nil {
		t.Fatal(err)
	}

	testbed := grid.NewTestbed()
	testbed.Authorize("wiz@GRID")
	ssp := core.NewProvider("ssp", "loopback://ssp")
	ssp.MustRegister(jobsub.NewGlobusrunService(testbed, "wiz@GRID"))
	manager := appws.NewManager(jobsub.NewGlobusrunClient(
		ssp.Loopback(), "loopback://ssp/Globusrun"))
	if err := manager.Register(&appws.Descriptor{
		Name: "MatMul", Version: "1",
		Hosts: []appws.HostBinding{{
			DNS: "modi4.ncsa.uiuc.edu", IP: "141.142.30.72",
			Executable: "/usr/local/bin/matmul",
			Queue:      appws.QueueBinding{Scheduler: grid.PBS, Queue: "batch", MaxNodes: 48, MaxWallTime: time.Hour},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	inst, err := manager.Prepare("MatMul", "modi4.ncsa.uiuc.edu",
		atoiOr(obj.GetField("nodes"), 1), time.Hour,
		[]string{obj.GetField("n")}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := manager.RunSynchronously(inst.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := manager.Instance(inst.ID)
	if got.State != appws.StateCompleted || !strings.Contains(got.Stdout, "matmul n=128 nodes=4") {
		t.Errorf("instance = %+v", got)
	}
	if _, err := manager.Archive(inst.ID); err != nil {
		t.Fatal(err)
	}
}

func atoiOr(s string, def int) int {
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		return def
	}
	return n
}

// TestPortletFrontsProtectedPortal exercises Section 5.4 + Section 4
// together: a WebFormPortlet aggregates a remote UI whose backing service
// calls are SAML-authenticated.
func TestPortletFrontsProtectedPortal(t *testing.T) {
	kdc := gss.NewKDC("GRID")
	kdc.AddPrincipal("cyoun", "pw")
	kdc.AddPrincipal("authsvc/x", "sk")
	kt, _ := kdc.Keytab("authsvc/x")
	svc := authsvc.NewService(kt)
	session, err := authsvc.Login(kdc, "cyoun", "pw", "authsvc/x", svc.EstablishSession, nil)
	if err != nil {
		t.Fatal(err)
	}
	broker := srb.NewBroker("sdsc")
	home := broker.CreateUser("cyoun")
	_ = broker.Sput("cyoun", home+"/f1", "data", "")
	spp := core.NewProvider("spp", "loopback://spp")
	spp.Use(authsvc.RequireAssertion(&authsvc.LocalVerifier{Service: svc}))
	spp.MustRegister(srbws.NewService(broker, ""))
	srbClient := srbws.NewClient(spp.Loopback(), "loopback://spp/SRBService")
	srbClient.Use(session.Interceptor())

	// The remote UI: a tiny web front end that lists the user's home
	// collection through the authenticated client.
	ui := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entries, err := srbClient.Ls(home)
		if err != nil {
			fmt.Fprintf(w, "error: %v", err)
			return
		}
		for _, e := range entries {
			fmt.Fprintf(w, `<li><a href="/file?n=%s">%s</a></li>`, e.Name, e.Name)
		}
	}))
	defer ui.Close()

	container := portlet.NewContainer(ui.Client(), "/portal")
	if err := container.Register(portlet.Entry{
		Name: "files", Type: "WebFormPortlet", URL: ui.URL + "/", Title: "My Files"}); err != nil {
		t.Fatal(err)
	}
	page := container.RenderPage("cyoun")
	if !strings.Contains(page, "f1") {
		t.Fatalf("portlet page missing authenticated content:\n%s", page)
	}
	if !strings.Contains(page, "/portal/portlet?name=files") {
		t.Error("file links not remapped into the portlet window")
	}
}
