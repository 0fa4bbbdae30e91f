package rpc_test

// Golden wire-format conformance suite: one representative request and
// response per portal service, round-tripped over BOTH the HTTP and the
// loopback transports, with the exact wire bytes diffed against checked-in
// golden files under testdata/golden/. Together with FuzzWriterVsRender
// (which pins the streaming Writer to the tree renderer) this guarantees
// that future encoder work can never silently change what the eight
// interoperable services put on the wire — the paper's whole premise is
// that independently developed implementations agree at the byte level of
// their agreed contracts.
//
// Regenerate after an intentional format change with:
//
//	go test ./internal/rpc -run TestGoldenWireFormat -update

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
	"repro/internal/xmlregistry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-format files")

// goldenCase is one service's conformance probe. build must return a
// fresh, deterministic fixture: the same call against two independent
// fixtures (one per transport) must produce identical wire bytes.
type goldenCase struct {
	name  string
	build func(t *testing.T) *core.Service
	call  *soap.Call
}

func goldenCases() []goldenCase {
	return []goldenCase{
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

// resilienceGoldenDef probes the two degradation fault shapes: hang never
// answers (its Deadline middleware does), reject answers with the same
// ServerBusy fault the LoadShedder emits at capacity.
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
			// Request: the streamed encoder and the element-tree path must
			// agree byte for byte before either is compared to the golden.
			var reqStream, reqTree bytes.Buffer
			tc.call.WireEnvelope().AppendTo(&reqStream)
			tc.call.Envelope().AppendTo(&reqTree)
			if !bytes.Equal(reqStream.Bytes(), reqTree.Bytes()) {
				t.Fatalf("request: streamed and tree encoders diverge\nstream: %s\ntree:   %s",
					reqStream.Bytes(), reqTree.Bytes())
			}
			checkGolden(t, goldenPath(tc.name, "req"), reqStream.Bytes())

			action := tc.call.ServiceNS + "#" + tc.call.Method

			// Loopback transport, fixture #1.
			lb := &soap.LoopbackTransport{Handler: goldenProvider(t, tc).Dispatch}
			var loopResp bytes.Buffer
			if err := lb.RoundTripRawCtx(context.Background(), "http://golden.example/svc", action, tc.call.WireEnvelope(), &loopResp); err != nil {
				t.Fatalf("loopback round trip: %v", err)
			}

			// HTTP transport, fixture #2 (a fresh, independent instance:
			// matching bytes also prove the fixture is deterministic).
			srv := httptest.NewServer(goldenProvider(t, tc))
			defer srv.Close()
			httpReq, err := http.NewRequest(http.MethodPost, srv.URL+"/svc", bytes.NewReader(reqStream.Bytes()))
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

			if !bytes.Equal(loopResp.Bytes(), httpBody) {
				t.Fatalf("HTTP and loopback transports disagree on the wire\nloopback: %s\nhttp:     %s",
					loopResp.Bytes(), httpBody)
			}
			checkGolden(t, goldenPath(tc.name, "resp"), httpBody)

			// Every response golden must still parse as a SOAP envelope.
			if _, err := soap.ParseEnvelopeBytes(httpBody); err != nil {
				t.Fatalf("response golden does not parse: %v", err)
			}
		})
	}
}
