// Command portalserver runs the complete portal stack on one HTTP server:
// the simulated grid testbed and SRB, every core portal Web Service
// (Globusrun, batch job, SRB, batch script generation, context manager,
// application service), a UDDI registry with all services published, the
// Authentication Service, the schema wizard, and the portlet container —
// all hosted on the rpc kernel's server.
//
//	portalserver -addr :8080 -user guest
//
// Useful endpoints once running:
//
//	/ssp/<Service>?wsdl        WSDL of each deployed service
//	/uddi/UDDIRegistry         UDDI SOAP endpoint
//	/auth/AuthenticationService SAML verification endpoint
//	/portal/                   aggregated portlet page
//	/wizard/gaussian/          schema-wizard generated form
//	/inspection.wsil           WS-Inspection document
//	/healthz                   request counts and latency stats
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/appws"
	"repro/internal/authsvc"
	"repro/internal/batchscript"
	"repro/internal/contextmgr"
	"repro/internal/grid"
	"repro/internal/gss"
	"repro/internal/jobsub"
	"repro/internal/persist"
	"repro/internal/portlet"
	"repro/internal/rpc"
	"repro/internal/schemawizard"
	"repro/internal/srb"
	"repro/internal/srbws"
	"repro/internal/uddi"
	"repro/internal/wal"
	"repro/internal/xmlregistry"
)

const gaussianSchema = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="gaussianRun">
    <xs:complexType><xs:sequence>
      <xs:element name="method">
        <xs:simpleType><xs:restriction base="xs:string">
          <xs:enumeration value="HF"/><xs:enumeration value="B3LYP"/><xs:enumeration value="MP2"/>
        </xs:restriction></xs:simpleType>
      </xs:element>
      <xs:element name="basis" type="xs:int" default="6"/>
      <xs:element name="nodes" type="xs:int" default="4"/>
      <xs:element name="molecule" type="xs:string"/>
    </xs:sequence></xs:complexType></xs:element>
</xs:schema>`

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM/SIGINT")
	user := flag.String("user", "guest", "default portal principal")
	baseURL := flag.String("base", "", "externally visible base URL (default http://localhost<addr>)")
	dataDir := flag.String("data", "", "directory for write-ahead logs; empty = in-memory only (state is lost on restart)")
	flag.Parse()
	base := *baseURL
	if base == "" {
		base = "http://localhost" + *addr
	}

	// openStore attaches a WAL under <data>/<name> to a stateful service's
	// persistence seam, replaying prior state into it. With -data unset it
	// does nothing and every store stays purely in-memory.
	openStore := func(name string, attach func(persist.Store) error) {
		if *dataDir == "" {
			return
		}
		l, err := wal.Open(filepath.Join(*dataDir, name), wal.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if err := attach(l); err != nil {
			log.Fatalf("recover %s: %v", name, err)
		}
	}

	// Substrate.
	testbed := grid.NewTestbed()
	testbed.Authorize(*user)
	broker := srb.NewBroker("sdsc")
	home := broker.CreateUser(*user)
	store := contextmgr.NewStore()
	openStore("contextmgr", store.Persist)

	// One hosting server; core services, UDDI, and auth each get their own
	// provider mount. Recovery, stats, WSDL, WSIL, and /healthz come from
	// the kernel.
	srv := rpc.NewServer("portal", base)
	ssp := srv.Provider("/ssp", rpc.Logging(nil))
	loop := srv.Transport()
	globusrunClient := jobsub.NewGlobusrunClient(loop, base+"/ssp/Globusrun")
	ssp.MustRegister(jobsub.NewGlobusrunService(testbed, *user))
	ssp.MustRegister(jobsub.NewBatchJobService(globusrunClient))
	ssp.MustRegister(srbws.NewService(broker, *user))
	ssp.MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
	ssp.MustRegister(contextmgr.NewMonolithService(store))
	manager := appws.NewManager(globusrunClient)
	manager.SRB = srbws.NewClient(loop, base+"/ssp/SRBService")
	manager.ArchiveCollection = home
	ssp.MustRegister(appws.NewService(manager))

	// UDDI with everything published. A recovered registry already holds
	// the boot publications of the previous incarnation (and anything
	// published since); republishing would mint duplicate entities with
	// fresh keys on every restart, so boot publishing only runs on an
	// empty registry.
	registry := uddi.NewRegistry()
	openStore("uddi", registry.Persist)
	if b, _, _ := registry.Counts(); b == 0 {
		biz, err := registry.SaveBusiness(uddi.BusinessEntity{Name: "Portal Server", Description: "all-in-one deployment"})
		if err != nil {
			log.Fatal(err)
		}
		for _, svc := range ssp.Services() {
			tm, err := registry.SaveTModel(uddi.TModel{
				Name:        "gce:" + svc.Contract.Name,
				OverviewURL: ssp.EndpointFor(svc) + "?wsdl",
			})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := registry.SaveService(uddi.BusinessService{
				BusinessKey: biz.Key,
				Name:        svc.Contract.Name,
				Description: svc.Contract.Doc,
				Bindings:    []uddi.BindingTemplate{{AccessPoint: ssp.EndpointFor(svc), TModelKeys: []string{tm.Key}}},
			}); err != nil {
				log.Fatal(err)
			}
		}
	}
	// Inquiry ops are memoised: repeated discovery traffic (find*/get*)
	// short-circuits the codec and handler entirely; publishes flush.
	uddiSvc := uddi.NewService(registry)
	uddiCache := rpc.NewResponseCache(30*time.Second, 4096)
	uddiSvc.Use(uddiCache.Middleware(rpc.OpPrefixes("find", "get")))
	srv.Stats().RegisterCache("uddi", uddiCache)
	srv.Provider("/uddi").MustRegister(uddiSvc)

	// XML container-hierarchy registry (Section 3.4's typed discovery),
	// with the same inquiry caching on its read surface.
	xreg := xmlregistry.NewRegistry()
	openStore("xmlregistry", xreg.Persist)
	xregSvc := xmlregistry.NewService(xreg)
	xregCache := rpc.NewResponseCache(30*time.Second, 4096)
	xregSvc.Use(xregCache.Middleware(rpc.OpPrefixes("find", "get")))
	srv.Stats().RegisterCache("xmlregistry", xregCache)
	srv.Provider("/registry").MustRegister(xregSvc)

	// Authentication Service.
	kdc := gss.NewKDC("PORTAL.LOCAL")
	kdc.AddPrincipal(*user, "guest")
	kdc.AddPrincipal("authsvc/portal.local", "keytab-secret")
	keytab, err := kdc.Keytab("authsvc/portal.local")
	if err != nil {
		log.Fatal(err)
	}
	srv.Provider("/auth").MustRegister(authsvc.NewSOAPService(authsvc.NewService(keytab)))

	// Schema wizard app.
	parser := &schemawizard.SchemaParser{Fetch: func(string) (string, error) { return gaussianSchema, nil }}
	wizardApp, err := parser.Parse("mem://gaussian.xsd", "gaussian", "gaussianRun")
	if err != nil {
		log.Fatal(err)
	}
	wizardMux := http.NewServeMux()
	wizardApp.Deploy(wizardMux)
	srv.Handle("/wizard/", http.StripPrefix("/wizard", wizardMux))

	// Portlet container aggregating the wizard UI.
	container := portlet.NewContainer(&http.Client{Timeout: 10 * time.Second}, "/portal")
	if err := container.Register(portlet.Entry{
		Name: "gaussian-ui", Type: "WebFormPortlet",
		URL: base + "/wizard/gaussian/", Title: "Gaussian",
	}); err != nil {
		log.Fatal(err)
	}
	srv.Handle("/portal/", container)

	srv.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "computational portal server\nservices:\n")
		for _, svc := range ssp.Services() {
			fmt.Fprintf(w, "  %s?wsdl\n", ssp.EndpointFor(svc))
		}
		fmt.Fprintf(w, "uddi: %s/uddi/UDDIRegistry\nauth: %s/auth/AuthenticationService\n", base, base)
		fmt.Fprintf(w, "portal page: %s/portal/\nwizard: %s/wizard/gaussian/\nhealth: %s/healthz\n", base, base, base)
	})

	log.Printf("portal server listening on %s (base %s)", *addr, base)
	if err := srv.ListenAndServeGraceful(*addr, *drain); err != nil {
		log.Fatal(err)
	}
	// Drained: no more writes in flight; flush and close the logs.
	for name, closeFn := range map[string]func() error{
		"contextmgr":  store.ClosePersist,
		"uddi":        registry.ClosePersist,
		"xmlregistry": xreg.ClosePersist,
	} {
		if err := closeFn(); err != nil {
			log.Printf("close %s log: %v", name, err)
		}
	}
}
