package rpc_test

// Golden wire-format conformance suite: one representative request and
// response per portal service, round-tripped over HTTP, over the
// production loopback (Provider.Loopback), and over a loopback through the
// tree dispatch oracle (TreeOracle), with the exact wire bytes diffed
// against checked-in golden files under testdata/golden/, plus the WSDL and
// WS-Inspection documents a server publishes (TestGoldenDescriptions).
// Together with FuzzWriterVsRender (which reads the Writer's output back
// with encoding/xml) this guarantees that future encoder work can never
// silently change what the eight interoperable services put on the wire —
// the paper's whole premise is that independently developed
// implementations agree at the byte level of their agreed contracts.
//
// Regenerate after an intentional format change with:
//
//	go test ./internal/rpc -run 'TestGoldenWireFormat|TestGoldenDescriptions' -update

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/srb"
	"repro/internal/srbws"
	"repro/internal/uddi"
	"repro/internal/wsdl"
	"repro/internal/wsil"
	"repro/internal/xmlregistry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-format files")

// goldenCase is one service's conformance probe. build must return a
// fresh, deterministic fixture: the same call against three independent
// fixtures (one per transport) must produce identical wire bytes.
type goldenCase struct {
	name  string
	build func(t *testing.T) *core.Service
	call  *soap.Call
}

func goldenCases() []goldenCase {
	_, svcKey, tmKey := uddiGoldenRegistry()
	uddiCase := func(name, method string, params ...soap.Value) goldenCase {
		return goldenCase{
			name: name,
			build: func(t *testing.T) *core.Service {
				r, _, _ := uddiGoldenRegistry()
				return uddi.NewService(r)
			},
			call: &soap.Call{ServiceNS: uddi.ServiceNS, Method: method, Params: params},
		}
	}
	return []goldenCase{
		uddiCase("uddi-find", "findServiceByTModel", soap.Str("tModelKey", tmKey)),
		uddiCase("uddi-detail", "getServiceDetail", soap.Str("serviceKey", svcKey)),
		uddiCase("uddi-tmodel", "getTModel", soap.Str("tModelKey", tmKey)),
		uddiCase("uddi-business", "findBusiness", soap.Str("name", "lab")),
		{
			name: "batchscript",
			build: func(t *testing.T) *core.Service {
				return batchscript.NewService(batchscript.NewIUGenerator())
			},
			call: &soap.Call{ServiceNS: batchscript.ServiceNS, Method: "generateScript", Params: []soap.Value{
				soap.Str("scheduler", "PBS"), soap.Str("jobName", "golden"),
				soap.Str("executable", "/bin/date"), soap.StrArray("arguments", []string{"-u"}),
				soap.Str("stdin", ""), soap.Str("queue", "batch"),
				soap.Int("nodes", 4), soap.Int("wallTimeSeconds", 3600),
			}},
		},
		{
			name: "globusrun",
			build: func(t *testing.T) *core.Service {
				g := grid.NewTestbed()
				g.Authorize("golden@GRID")
				return jobsub.NewGlobusrunService(g, "golden@GRID")
			},
			call: &soap.Call{ServiceNS: jobsub.GlobusrunNS, Method: "run", Params: []soap.Value{
				soap.Str("host", "modi4.ncsa.uiuc.edu"),
				soap.Str("rsl", "&(executable=/bin/hostname)"),
			}},
		},
		{
			name: "srb",
			build: func(t *testing.T) *core.Service {
				broker := srb.NewBroker("sdsc")
				home := broker.CreateUser("golden")
				if err := broker.Sput("golden", home+"/greeting", "hello from the wire\n", ""); err != nil {
					t.Fatal(err)
				}
				return srbws.NewService(broker, "golden")
			},
			call: &soap.Call{ServiceNS: srbws.ServiceNS, Method: "cat", Params: []soap.Value{
				soap.Str("path", "/sdsc/home/golden/greeting"),
			}},
		},
		{
			name: "contextmanager",
			build: func(t *testing.T) *core.Service {
				return contextmgr.NewMonolithService(contextmgr.NewStore())
			},
			call: &soap.Call{ServiceNS: contextmgr.MonolithNS, Method: "createUserContext", Params: []soap.Value{
				soap.Str("user", "alice"),
			}},
		},
		{
			// A fault response golden: the portal-standard error relay is as
			// much a wire contract as the success shapes.
			name: "authsvc",
			build: func(t *testing.T) *core.Service {
				kdc := gss.NewKDC("GRID")
				kdc.AddPrincipal("authsvc/grid", "sk")
				kt, err := kdc.Keytab("authsvc/grid")
				if err != nil {
					t.Fatal(err)
				}
				return authsvc.NewSOAPService(authsvc.NewService(kt))
			},
			call: &soap.Call{ServiceNS: authsvc.ServiceNS, Method: "closeSession", Params: []soap.Value{
				soap.Str("sessionID", "no-such-session"),
			}},
		},
		{
			name: "uddi",
			build: func(t *testing.T) *core.Service {
				return uddi.NewService(uddi.NewRegistry())
			},
			call: &soap.Call{ServiceNS: uddi.ServiceNS, Method: "saveBusiness", Params: []soap.Value{
				soap.Str("name", "IU Community Grids Lab"),
				soap.Str("description", "Gateway portal group"),
			}},
		},
		{
			name: "xmlregistry",
			build: func(t *testing.T) *core.Service {
				r := xmlregistry.NewRegistry()
				if err := r.Put("services/grp0/svc0", "service", []xmlregistry.Property{
					{Name: "interface", Value: "urn:gce:batchscript"},
					{Name: "supportedScheduler", Value: "PBS"},
				}); err != nil {
					t.Fatal(err)
				}
				return xmlregistry.NewService(r)
			},
			call: &soap.Call{ServiceNS: xmlregistry.ServiceNS, Method: "get", Params: []soap.Value{
				soap.Str("path", "services/grp0/svc0"),
			}},
		},
		{
			name: "appws",
			build: func(t *testing.T) *core.Service {
				m := appws.NewManager(nil)
				if err := m.Register(&appws.Descriptor{
					Name: "Gaussian", Version: "98-A.7",
					Hosts: []appws.HostBinding{{
						DNS: "bluehorizon.sdsc.edu", IP: "198.202.96.41",
						Executable: "/usr/local/bin/gaussian",
						Queue: appws.QueueBinding{Scheduler: grid.LSF, Queue: "normal",
							MaxNodes: 64, MaxWallTime: 4 * time.Hour},
					}},
				}); err != nil {
					t.Fatal(err)
				}
				return appws.NewService(m)
			},
			call: &soap.Call{ServiceNS: appws.ServiceNS, Method: "describeApplication", Params: []soap.Value{
				soap.Str("name", "Gaussian"),
			}},
		},
		{
			// The resilience layer's degradation answers are wire contracts
			// too: a deadline-bounded service must always time out with this
			// exact Timeout fault shape.
			name: "timeoutfault",
			build: func(t *testing.T) *core.Service {
				svc := resilienceGoldenDef().MustBuild()
				svc.Use(rpc.Deadline(5 * time.Millisecond))
				return svc
			},
			call: &soap.Call{ServiceNS: "urn:gce:resilience", Method: "hang"},
		},
		{
			// The load-shedding rejection: the ServerBusy fault body (the
			// Retry-After header rides alongside on the HTTP binding only).
			name: "serverbusyfault",
			build: func(t *testing.T) *core.Service {
				return resilienceGoldenDef().MustBuild()
			},
			call: &soap.Call{ServiceNS: "urn:gce:resilience", Method: "reject"},
		},
	}
}

// uddiGoldenRegistry is the fixture of the UDDI answer goldens: two
// businesses, one with an empty description, and a tModel with two
// services under it. The first service has two bindings, one with a
// description; the second has an empty description. Text and attributes
// carry <, &, " and a carriage return. Keys are minted from the
// registry's sequence, so every call returns the same keys: the key of
// the first service and the tModel's.
func uddiGoldenRegistry() (r *uddi.Registry, serviceKey, tModelKey string) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	r = uddi.NewRegistry()
	biz, err := r.SaveBusiness(uddi.BusinessEntity{Name: "IU Community Grids Lab", Description: "Gateway <portal> & \"friends\"\r\n"})
	must(err)
	_, err = r.SaveBusiness(uddi.BusinessEntity{Name: "SDSC HotPage Lab"})
	must(err)
	tm, err := r.SaveTModel(uddi.TModel{Name: "gce:BatchScriptGenerator", Description: "scripts for <PBS> & \"LSF\"\r",
		OverviewURL: "http://golden.example/bsg.wsdl?a=1&b=\"2\""})
	must(err)
	s, err := r.SaveService(uddi.BusinessService{
		BusinessKey: biz.Key,
		Name:        "BSG <alpha> & \"one\"",
		Description: uddi.DescribeCapabilities("line one\r\nline two", []string{"PBS", "GRD"}),
		Bindings: []uddi.BindingTemplate{
			{AccessPoint: "http://alpha.example/soap?x=1&y=\"2\"", Description: "primary <fast> & \"near\"\r", TModelKeys: []string{tm.Key}},
			{AccessPoint: "http://alpha-backup.example/soap", TModelKeys: []string{tm.Key, tm.Key}},
		},
	})
	must(err)
	_, err = r.SaveService(uddi.BusinessService{
		BusinessKey: biz.Key,
		Name:        "BSG beta",
		Bindings:    []uddi.BindingTemplate{{AccessPoint: "http://beta.example/soap", TModelKeys: []string{tm.Key}}},
	})
	must(err)
	return r, s.Key, tm.Key
}

// resilienceGoldenDef probes the two degradation fault shapes: hang never
// answers (its Deadline middleware does), reject answers with the same
// ServerBusy fault LoadShed emits at capacity.
func resilienceGoldenDef() *rpc.Def {
	return &rpc.Def{
		Name: "ResilienceGolden",
		NS:   "urn:gce:resilience",
		Doc:  "resilience fault wire shapes",
		Ops: []rpc.Op{
			{Name: "hang", Out: []wsdl.Param{rpc.Str("never")},
				Handle: func(cx *core.Context, _ rpc.Args) ([]interface{}, error) {
					<-cx.Context().Done()
					return nil, cx.Context().Err()
				}},
			{Name: "reject", Out: []wsdl.Param{rpc.Str("never")},
				Handle: func(_ *core.Context, _ rpc.Args) ([]interface{}, error) {
					return nil, rpc.ServerBusyError("ResilienceGolden", 8, 16, time.Second)
				}},
		},
	}
}

// goldenProvider hosts one fresh service fixture on a provider with fixed
// identity, so faults and WSDL addresses are reproducible.
func goldenProvider(t *testing.T, tc goldenCase) *core.Provider {
	t.Helper()
	p := core.NewProvider("golden-ssp", "http://golden.example")
	p.MustRegister(tc.build(t))
	return p
}

func goldenPath(name, kind string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s.%s.xml", name, kind))
}

// checkGolden compares got against the named golden file, rewriting the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (re-run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire bytes diverge from %s\n got: %s\nwant: %s", path, got, want)
	}
}

func TestGoldenWireFormat(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			// Request: the one request encoder, pinned by the golden.
			var req bytes.Buffer
			tc.call.WireEnvelope().AppendTo(&req)
			checkGolden(t, goldenPath(tc.name, "req"), req.Bytes())

			action := tc.call.ServiceNS + "#" + tc.call.Method

			// In-process transports, fixtures #1 (production wiring) and #2
			// (the tree dispatch oracle).
			loop := func(serve soap.ServeFunc) []byte {
				var out bytes.Buffer
				lb := &soap.LoopbackTransport{Serve: serve}
				if err := lb.RoundTripRawCtx(context.Background(), "http://golden.example/svc", action, tc.call.WireEnvelope(), &out); err != nil {
					t.Fatalf("loopback round trip: %v", err)
				}
				return out.Bytes()
			}
			fastResp := loop(goldenProvider(t, tc).Serve)
			treeResp := loop(rpc.NewTreeOracle(goldenProvider(t, tc)).Serve)

			// HTTP transport, fixture #3 (a fresh, independent instance:
			// matching bytes also prove the fixture is deterministic).
			srv := httptest.NewServer(goldenProvider(t, tc))
			defer srv.Close()
			httpReq, err := http.NewRequest(http.MethodPost, srv.URL+"/svc", bytes.NewReader(req.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			httpReq.Header.Set("Content-Type", soap.ContentType)
			httpReq.Header.Set("SOAPAction", `"`+action+`"`)
			resp, err := srv.Client().Do(httpReq)
			if err != nil {
				t.Fatal(err)
			}
			httpBody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(fastResp, httpBody) {
				t.Fatalf("HTTP and loopback transports disagree on the wire\nloopback: %s\nhttp:     %s",
					fastResp, httpBody)
			}
			if !bytes.Equal(treeResp, httpBody) {
				t.Fatalf("tree dispatch and streaming reader disagree on the wire\ntree: %s\nhttp: %s",
					treeResp, httpBody)
			}
			checkGolden(t, goldenPath(tc.name, "resp"), httpBody)

			// Every response golden must still parse as a SOAP envelope.
			if _, err := soap.ParseEnvelopeBytes(httpBody); err != nil {
				t.Fatalf("response golden does not parse: %v", err)
			}
		})
	}
}

// TestGoldenDescriptions pins the service descriptions a server publishes
// beside its envelopes: the ?wsdl document of every service the wire
// suite covers, and the server's /inspection.wsil listing them all. Each
// service is deployed once on one server with a fixed base URL, and both
// documents are read through its HTTP handler, as a client binding to it
// would read them.
func TestGoldenDescriptions(t *testing.T) {
	srv := rpc.NewServer("golden", "http://golden.example")
	p := srv.Provider("/ssp")
	var services []*core.Service
	seen := map[string]bool{}
	for _, tc := range goldenCases() {
		svc := tc.build(t)
		if seen[svc.Contract.Name] {
			continue
		}
		seen[svc.Contract.Name] = true
		p.MustRegister(svc)
		services = append(services, svc)
	}
	get := func(target string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d: %s", target, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	for _, svc := range services {
		t.Run(svc.Contract.Name, func(t *testing.T) {
			doc := get("/ssp" + svc.Path + "?wsdl")
			checkGolden(t, filepath.Join("testdata", "golden", svc.Contract.Name+".wsdl"), doc)
			back, err := wsdl.Parse(string(doc))
			if err != nil {
				t.Fatalf("served WSDL does not parse: %v", err)
			}
			if bad := wsdl.CheckCompatible(svc.Contract, back.Interface); len(bad) != 0 {
				t.Errorf("served WSDL is incompatible with the contract: %v", bad)
			}
		})
	}
	t.Run("inspection", func(t *testing.T) {
		doc := get(wsil.WellKnownPath)
		checkGolden(t, filepath.Join("testdata", "golden", "inspection.wsil"), doc)
		back, err := wsil.Parse(string(doc))
		if err != nil {
			t.Fatalf("served WSIL does not parse: %v", err)
		}
		if len(back.Services) != len(services) {
			t.Errorf("inspection lists %d services, want %d", len(back.Services), len(services))
		}
	})
}
