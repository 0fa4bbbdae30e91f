// Package repro's benchmark harness regenerates every figure and
// evaluation claim of "Interoperable Web Services for Computational
// Portals" (SC 2002). The paper reports no numeric tables — its evaluation
// is the set of interoperability exercises and qualitative costs — so each
// benchmark quantifies one claim's *shape* (who wins, by what factor,
// where growth bites). EXPERIMENTS.md maps benchmark output to the paper's
// statements. Run with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/allocbudget"
	"repro/internal/appws"
	"repro/internal/authsvc"
	"repro/internal/batchscript"
	"repro/internal/contextmgr"
	"repro/internal/core"
	"repro/internal/databind"
	"repro/internal/gateway"
	"repro/internal/grid"
	"repro/internal/gss"
	"repro/internal/jobsub"
	"repro/internal/portal"
	"repro/internal/portlet"
	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/schemawizard"
	"repro/internal/soap"
	"repro/internal/srb"
	"repro/internal/srbws"
	"repro/internal/uddi"
	"repro/internal/wal"
	"repro/internal/webflow"
	"repro/internal/wsdl"
	"repro/internal/xmlregistry"
)

// ---------------------------------------------------------------------------
// FIG1 — Figure 1: UI server -> UDDI find -> bind SSP -> SOAP invoke.
// BenchmarkFigure1_Ladder prices the invoke one layer at a time, so a
// regression names its layer; BenchmarkFigure1_DiscoveryBindInvoke puts
// the UDDI find and the bind in front of it.
// ---------------------------------------------------------------------------

var benchRequest = batchscript.Request{
	Scheduler: grid.PBS, JobName: "bench", Executable: "/bin/date",
	Queue: "batch", Nodes: 4, WallTime: time.Hour,
}

// benchGenerateParams is benchRequest as generateScript's wire parameters.
var benchGenerateParams = []soap.Value{
	soap.Str("scheduler", "PBS"), soap.Str("jobName", "bench"),
	soap.Str("executable", "/bin/date"), soap.StrArray("arguments", nil),
	soap.Str("stdin", ""), soap.Str("queue", "batch"),
	soap.Int("nodes", 4), soap.Int("wallTimeSeconds", 3600),
}

// warm runs op allocbudget.Warmup times and then resets the clock, so no
// rung pays a one-time fill (the global intern table, the buffer pools, a
// TCP connection) on behalf of the rungs after it.
func warm(b *testing.B, op func() error) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < allocbudget.Warmup; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
}

// rung times b.N calls of op after the warm-up.
func rung(b *testing.B, op func() error) {
	b.Helper()
	warm(b, op)
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1_Ladder prices Figure 1's invoke one layer at a time.
// The read rungs make the same generateScript call, each adding one layer
// to the rung before it:
//
//   - direct: the generator alone, no SOAP;
//   - serve: Provider.Serve on pre-encoded request bytes (kernel decode,
//     middleware, handler, encode);
//   - loopback: a core.Client over the in-process transport (adds the
//     client's encode and decode);
//   - guarded: loopback with the full guard set, Deadline and LoadShed
//     on the server, Retry and Breakers on the client. No cmd/ binary
//     wires these four; the binaries run only the gateway's breakers and
//     the graceful drain;
//   - http: the loopback call over TCP through net/http;
//   - gateway: the http rung's server behind the federating gateway,
//     reached in process; the gateway forwards over TCP.
//
// The write rungs publish a business (saveBusiness) over loopback into a
// registry held in memory, logged to a WAL without fsync, and logged with
// a group-committed fsync. wal-fsync-parallel runs the fsync rung from
// p writers per P (b.RunParallel) and reports the writer count, so group
// commit shows as the cost per publish falling while writers are added.
//
// Rung differences are layer costs: guarded − loopback is the guard-set
// tax, gateway − http the federation cost, wal-fsync − memory the
// durability tax.
func BenchmarkFigure1_Ladder(b *testing.B) {
	for _, r := range ladder {
		b.Run(r.name, func(b *testing.B) { rung(b, r.op(b)) })
	}
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("wal-fsync-parallel/p=%d", p), func(b *testing.B) {
			op := ladderPublisher(b, &wal.Options{})
			b.SetParallelism(p)
			warm(b, op)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := op(); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(float64(p*runtime.GOMAXPROCS(0)), "writers")
		})
	}
}

// ladder is BenchmarkFigure1_Ladder's rungs in order, each building the
// one call it times. allocs is the rung's budget of allocations per call,
// which TestFigure1_LadderAllocs enforces; it is 0 for the rungs that
// cross TCP or fsync, whose counts include the network and disk
// goroutines' own. The test counts 100 calls after the warm-up, so the
// write rungs' budgets sit below their benchmark figures, which also
// carry costs that grow with the registry and its log over many more
// calls.
var ladder = []struct {
	name   string
	op     func(tb testing.TB) func() error
	allocs float64
}{
	{"direct", ladderDirect, 14},
	{"serve", ladderServe, 29},
	{"loopback", ladderLoopback, 36},
	{"guarded", ladderGuarded, 42},
	{"http", ladderHTTP, 0},
	{"gateway", ladderGateway, 0},
	{"memory", func(tb testing.TB) func() error { return ladderPublisher(tb, nil) }, 31},
	{"wal-nosync", func(tb testing.TB) func() error { return ladderPublisher(tb, &wal.Options{NoSync: true}) }, 36},
	{"wal-fsync", func(tb testing.TB) func() error { return ladderPublisher(tb, &wal.Options{}) }, 0},
}

// TestFigure1_LadderAllocs holds every in-process ladder rung to its
// allocation budget, counted after the same warm-up the benchmark runs.
func TestFigure1_LadderAllocs(t *testing.T) {
	for _, r := range ladder {
		if r.allocs == 0 {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			op := r.op(t)
			allocbudget.Check(t, r.allocs, func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

const ladderPath = "/ssp/BatchScriptGenerator"

// ladderHosted serves BatchScriptGenerator from a fresh server, with mw
// after the kernel's own middleware.
func ladderHosted(mw ...core.Middleware) (*rpc.Server, *core.Provider) {
	srv := rpc.NewServer("ladder", "loopback://ladder")
	p := srv.Provider("/ssp", mw...)
	p.MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
	return srv, p
}

// ladderOverTCP puts srv behind an HTTP listener and returns its base URL.
func ladderOverTCP(tb testing.TB, srv *rpc.Server) string {
	hs := httptest.NewServer(srv.Handler())
	tb.Cleanup(hs.Close)
	srv.SetBaseURL(hs.URL)
	return hs.URL
}

// ladderGenerate is the read rungs' generateScript call through cl.
func ladderGenerate(cl *core.Client) func() error {
	return func() error {
		_, err := cl.CallText("generateScript", benchGenerateParams...)
		return err
	}
}

func ladderDirect(testing.TB) func() error {
	gen := batchscript.NewIUGenerator()
	return func() error {
		_, err := gen.Generate(benchRequest)
		return err
	}
}

func ladderServe(testing.TB) func() error {
	_, p := ladderHosted()
	call := soap.Call{ServiceNS: batchscript.Contract().TargetNS, Method: "generateScript", Params: benchGenerateParams}
	var req, out bytes.Buffer
	call.WireEnvelope().AppendTo(&req)
	return func() error {
		out.Reset()
		return p.Serve(context.Background(), req.Bytes(), &out)
	}
}

func ladderLoopback(testing.TB) func() error {
	srv, _ := ladderHosted()
	return ladderGenerate(core.NewClient(srv.Transport(), "loopback://ladder"+ladderPath, batchscript.Contract()))
}

func ladderGuarded(testing.TB) func() error {
	srv, _ := ladderHosted(rpc.Deadline(time.Second), rpc.LoadShed(64, 128))
	return ladderGenerate(resilientClient(srv.Transport(), "loopback://ladder"+ladderPath,
		benchRetryPolicy(), benchBreakerSet()))
}

func ladderHTTP(tb testing.TB) func() error {
	srv, _ := ladderHosted()
	base := ladderOverTCP(tb, srv)
	return ladderGenerate(core.NewClient(&soap.HTTPTransport{}, base+ladderPath, batchscript.Contract()))
}

func ladderGateway(tb testing.TB) func() error {
	srv, _ := ladderHosted()
	gw := gateway.New("gw", "http://gw.ladder")
	if err := gw.Mount(ladderOverTCP(tb, srv)); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(gw.Close)
	return ladderGenerate(core.NewClient(gw.Loopback(), "http://gw.ladder"+ladderPath, batchscript.Contract()))
}

// ladderPublisher returns a saveBusiness call against a fresh registry,
// logged to a WAL with opts unless opts is nil.
func ladderPublisher(tb testing.TB, opts *wal.Options) func() error {
	reg := uddi.NewRegistry()
	if opts != nil {
		l, err := wal.Open(tb.TempDir(), *opts)
		if err != nil {
			tb.Fatal(err)
		}
		if err := reg.Persist(l); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() {
			if err := reg.ClosePersist(); err != nil {
				tb.Error(err)
			}
		})
	}
	p := core.NewProvider("ladder-uddi", "loopback://uddi")
	p.MustRegister(uddi.NewService(reg))
	cl := core.NewClient(p.Loopback(), "loopback://uddi/UDDIRegistry", uddi.Contract())
	return func() error {
		_, err := cl.CallText("saveBusiness", soap.Str("name", "ladder"), soap.Str("description", "write rung"))
		return err
	}
}

func BenchmarkFigure1_DiscoveryBindInvoke(b *testing.B) {
	gen := batchscript.NewIUGenerator()
	ssp := core.NewProvider("iu-ssp", "loopback://iu")
	ssp.MustRegister(batchscript.NewService(gen))
	tr := ssp.Loopback()
	reg := uddi.NewRegistry()
	biz, _ := reg.SaveBusiness(uddi.BusinessEntity{Name: "IU"})
	if _, err := batchscript.PublishUDDI(reg, biz.Key, "IU BSG",
		"loopback://iu/BatchScriptGenerator", gen); err != nil {
		b.Fatal(err)
	}
	tm, _ := reg.TModelByName(batchscript.TModelName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		services := reg.FindServiceByTModel(tm.Key)
		if len(services) != 1 {
			b.Fatal("discovery failed")
		}
		cl := batchscript.NewClient(tr, services[0].Bindings[0].AccessPoint)
		if _, err := cl.GenerateScript(benchRequest); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// S3.1a — Globusrun WS: plain-string method vs XML multi-job batching.
// The XML DTD lets N jobs ride one request; per-job cost falls with N.
// ---------------------------------------------------------------------------

func globusrunFixture(b *testing.B) *jobsub.GlobusrunClient {
	b.Helper()
	g := grid.NewTestbed()
	g.Authorize("bench@GRID")
	ssp := core.NewProvider("ssp", "loopback://grid")
	ssp.MustRegister(jobsub.NewGlobusrunService(g, "bench@GRID"))
	return jobsub.NewGlobusrunClient(ssp.Loopback(), "loopback://grid/Globusrun")
}

func BenchmarkS31_JobSubmission_PlainStrings(b *testing.B) {
	cl := globusrunFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Run("modi4.ncsa.uiuc.edu", "&(executable=/bin/hostname)"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkS31_JobSubmission_XMLMultiJob(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			cl := globusrunFixture(b)
			jobs := make([]jobsub.JobRequest, n)
			for i := range jobs {
				jobs[i] = jobsub.JobRequest{
					Host: "modi4.ncsa.uiuc.edu",
					Spec: grid.JobSpec{Executable: "/bin/hostname"},
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := cl.RunXML(jobs)
				if err != nil || len(results) != n {
					b.Fatalf("results=%d err=%v", len(results), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/job")
		})
	}
}

// S3.1b — Service composition: the batch-job WS calling the Globusrun WS
// adds one full SOAP hop per request.
func BenchmarkS31_ServiceComposition(b *testing.B) {
	inner := globusrunFixture(b)
	batchSSP := core.NewProvider("batch", "loopback://batch")
	batchSSP.MustRegister(jobsub.NewBatchJobService(inner))
	outer := jobsub.NewBatchJobClient(batchSSP.Loopback(),
		"loopback://batch/BatchJobSubmission")
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inner.Run("modi4.ncsa.uiuc.edu", "&(executable=/bin/hostname)"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("composed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := outer.SubmitBatch("modi4.ncsa.uiuc.edu", "/bin/hostname"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// S3.1c — The IU flavour: direct mini-ORB call vs the SOAP->IIOP bridge.
func BenchmarkS31_WebFlowBridge(b *testing.B) {
	g := grid.NewTestbed()
	g.Authorize("bench@GRID")
	wfServer := webflow.NewServer()
	wfServer.RegisterServant(webflow.JobSubmissionKey, &webflow.JobSubmissionModule{Grid: g})
	if _, err := wfServer.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer wfServer.Close()
	orb := webflow.InitORB()
	defer orb.Shutdown()
	ref, err := orb.Resolve(wfServer.IOR(webflow.JobSubmissionKey))
	if err != nil {
		b.Fatal(err)
	}
	bridgeSvc, err := jobsub.NewWebFlowBridgeService(orb, wfServer.IOR(webflow.JobSubmissionKey), "bench@GRID")
	if err != nil {
		b.Fatal(err)
	}
	ssp := core.NewProvider("iu", "loopback://iu")
	ssp.MustRegister(bridgeSvc)
	soapClient := core.NewClient(ssp.Loopback(),
		"loopback://iu/WebFlowJobSubmission", jobsub.WebFlowBridgeContract())

	b.Run("direct-orb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ref.Invoke("runJob", "bench@GRID", "hpc-sge.iu.edu", "&(executable=/bin/hostname)"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("soap-bridge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := soapClient.CallText("runJob",
				soap.Str("host", "hpc-sge.iu.edu"),
				soap.Str("rsl", "&(executable=/bin/hostname)"))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// S3.2 — SRB transfer: "simply streaming the file as a string ... does not
// scale well". String-streaming vs chunked, across sizes; MB/s reported.
// ---------------------------------------------------------------------------

func srbFixture(b *testing.B, size int) (*srbws.Client, string) {
	b.Helper()
	broker := srb.NewBroker("sdsc")
	home := broker.CreateUser("bench")
	data := strings.Repeat("x", size)
	if err := broker.Sput("bench", home+"/payload", data, ""); err != nil {
		b.Fatal(err)
	}
	ssp := core.NewProvider("srb", "loopback://srb")
	ssp.MustRegister(srbws.NewService(broker, "bench"))
	return srbws.NewClient(ssp.Loopback(), "loopback://srb/SRBService"), home
}

var transferSizes = []int{1 << 10, 64 << 10, 1 << 20, 4 << 20}

func BenchmarkS32_SRBTransfer_StringStream(b *testing.B) {
	for _, size := range transferSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			cl, home := srbFixture(b, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := cl.Get(home + "/payload")
				if err != nil || len(data) != size {
					b.Fatalf("len=%d err=%v", len(data), err)
				}
			}
		})
	}
}

func BenchmarkS32_SRBTransfer_Chunked64K(b *testing.B) {
	for _, size := range transferSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			cl, home := srbFixture(b, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := cl.GetChunked(home+"/payload", 64<<10)
				if err != nil || len(data) != size {
					b.Fatalf("len=%d err=%v", len(data), err)
				}
			}
		})
	}
}

func BenchmarkS32_SRBPut_StringStream(b *testing.B) {
	for _, size := range transferSizes {
		b.Run(sizeName(size), func(b *testing.B) {
			cl, home := srbFixture(b, 1)
			payload := strings.Repeat("y", size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Put(home+"/up", payload, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	default:
		return fmt.Sprintf("%dKB", n>>10)
	}
}

// ---------------------------------------------------------------------------
// S3.3 — Decoupling the script generator from the context manager forced
// "artificial contexts (sessions) for HotPage users", which "introduced
// unnecessary overhead". Integrated reuse vs per-call placeholder creation
// vs the standalone (decoupled, stateless) service.
// ---------------------------------------------------------------------------

func BenchmarkS33_ArtificialContext(b *testing.B) {
	newCoupled := func() *core.Client {
		store := contextmgr.NewStore()
		if err := store.CreatePlaceholder("gateway-user", "cfd", "session1"); err != nil {
			b.Fatal(err)
		}
		ssp := core.NewProvider("ssp", "loopback://x")
		ssp.MustRegister(batchscript.NewCoupledService(batchscript.NewIUGenerator(), store))
		return core.NewClient(ssp.Loopback(), "x", batchscript.CoupledContract())
	}
	genArgs := func(user, problem, session string) []soap.Value {
		return []soap.Value{
			soap.Str("user", user), soap.Str("problem", problem), soap.Str("session", session),
			soap.Str("scheduler", "PBS"), soap.Str("jobName", "j"), soap.Str("executable", "/bin/date"),
			soap.StrArray("arguments", nil), soap.Str("stdin", ""), soap.Str("queue", "batch"),
			soap.Int("nodes", 1), soap.Int("wallTimeSeconds", 600),
		}
	}
	b.Run("integrated-reuse", func(b *testing.B) {
		// A Gateway user with a long-lived session: context exists once.
		cl := newCoupled()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.CallText("generateScript", genArgs("gateway-user", "cfd", "session1")...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("placeholder-per-call", func(b *testing.B) {
		// A HotPage user: every call first manufactures an artificial
		// session through the context manager service.
		store := contextmgr.NewStore()
		ssp := core.NewProvider("ssp", "loopback://x")
		ssp.MustRegister(batchscript.NewCoupledService(batchscript.NewIUGenerator(), store))
		ssp.MustRegister(contextmgr.NewMonolithService(store))
		tr := ssp.Loopback()
		gen := core.NewClient(tr, "x", batchscript.CoupledContract())
		ctx := core.NewClient(tr, "x", contextmgr.MonolithContract())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			session := fmt.Sprintf("tmp-%d", i)
			if _, err := ctx.CallText("createPlaceholderContext",
				soap.Str("user", "hotpage-user"), soap.Str("problem", "generic"), soap.Str("session", session)); err != nil {
				b.Fatal(err)
			}
			if _, err := gen.CallText("generateScript", genArgs("hotpage-user", "generic", session)...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decoupled-stateless", func(b *testing.B) {
		// The redesigned independent service: no context at all.
		ssp := core.NewProvider("ssp", "loopback://x")
		ssp.MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
		cl := batchscript.NewClient(ssp.Loopback(), "x")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.GenerateScript(batchscript.Request{
				Scheduler: grid.PBS, Executable: "/bin/date", Queue: "batch",
				Nodes: 1, WallTime: 10 * time.Minute,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// S3.4 — Discovery: UDDI string-convention search vs the proposed XML
// container-hierarchy registry's typed query, at growing registry sizes.
// (Precision is asserted in the uddi and xmlregistry package tests; here
// the latency shape.)
// ---------------------------------------------------------------------------

func BenchmarkS34_Discovery(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		reg := uddi.NewRegistry()
		biz, _ := reg.SaveBusiness(uddi.BusinessEntity{Name: "GCE"})
		xreg := xmlregistry.NewRegistry()
		for i := 0; i < n; i++ {
			scheds := []string{"PBS"}
			if i%2 == 0 {
				scheds = []string{"LSF", "NQS"}
			}
			if _, err := reg.SaveService(uddi.BusinessService{
				BusinessKey: biz.Key,
				Name:        fmt.Sprintf("svc-%d", i),
				Description: uddi.DescribeCapabilities("generator", scheds),
			}); err != nil {
				b.Fatal(err)
			}
			props := []xmlregistry.Property{{Name: "interface", Value: batchscript.TModelName}}
			for _, s := range scheds {
				props = append(props, xmlregistry.Property{Name: "supportedScheduler", Value: s})
			}
			if err := xreg.Put(fmt.Sprintf("services/grp%d/svc%d", i%10, i), "service", props); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("uddi-convention/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := reg.FindByParsedConvention("NQS"); len(got) != n/2+n%2 {
					b.Fatalf("matches=%d", len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("xmlregistry-typed/n=%d", n), func(b *testing.B) {
			q := xmlregistry.Query{
				Type:       "service",
				PropEquals: []xmlregistry.Property{{Name: "supportedScheduler", Value: "NQS"}},
			}
			for i := 0; i < b.N; i++ {
				got, err := xreg.Find(q)
				if err != nil || len(got) != n/2+n%2 {
					b.Fatalf("matches=%d err=%v", len(got), err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// FIG2 — The atomic authentication step: cost of SAML assertion signing +
// Authentication Service verification per call, local and over SOAP.
// ---------------------------------------------------------------------------

func authFixture(b *testing.B) (*authsvc.ClientSession, *authsvc.Service, *authsvc.Client) {
	b.Helper()
	kdc := gss.NewKDC("GRID")
	kdc.AddPrincipal("bench", "pw")
	kdc.AddPrincipal("authsvc/grid", "sk")
	kt, err := kdc.Keytab("authsvc/grid")
	if err != nil {
		b.Fatal(err)
	}
	service := authsvc.NewService(kt)
	authSSP := core.NewProvider("auth", "loopback://auth")
	authSSP.MustRegister(authsvc.NewSOAPService(service))
	remote := authsvc.NewClient(authSSP.Loopback(),
		"loopback://auth/AuthenticationService")
	session, err := authsvc.Login(kdc, "bench", "pw", "authsvc/grid", service.EstablishSession, nil)
	if err != nil {
		b.Fatal(err)
	}
	return session, service, remote
}

func echoDef() *rpc.Def {
	return &rpc.Def{
		Name: "Echo", NS: "urn:bench:echo",
		Ops: []rpc.Op{{
			Name: "ping",
			Out:  []wsdl.Param{rpc.Str("pong")},
			Handle: func(ctx *core.Context, _ rpc.Args) ([]interface{}, error) {
				return rpc.Ret(ctx.Principal), nil
			},
		}},
	}
}

func echoProvider(mw core.Middleware) *core.Provider {
	p := core.NewProvider("spp", "loopback://spp")
	if mw != nil {
		p.Use(mw)
	}
	p.MustRegister(echoDef().MustBuild())
	return p
}

func echoClient(p *core.Provider) *core.Client {
	return core.NewClient(p.Loopback(), "x", echoDef().Interface())
}

func BenchmarkFig2_AuthOverhead(b *testing.B) {
	session, service, remote := authFixture(b)
	b.Run("unauthenticated", func(b *testing.B) {
		cl := echoClient(echoProvider(nil))
		for i := 0; i < b.N; i++ {
			if _, err := cl.CallText("ping"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("saml-local-verify", func(b *testing.B) {
		cl := echoClient(echoProvider(authsvc.RequireAssertion(&authsvc.LocalVerifier{Service: service})))
		cl.Use(session.Interceptor())
		for i := 0; i < b.N; i++ {
			if _, err := cl.CallText("ping"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("saml-forwarded-verify", func(b *testing.B) {
		// The paper's deployment: the SPP forwards each assertion to the
		// Authentication Service over SOAP.
		cl := echoClient(echoProvider(authsvc.RequireAssertion(remote)))
		cl.Use(session.Interceptor())
		for i := 0; i < b.N; i++ {
			if _, err := cl.CallText("ping"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// FIG3 — Schema wizard: schema -> SOM -> widgets -> form, and the form ->
// instance -> reload round trip, as schema size grows.
// ---------------------------------------------------------------------------

func wizardSchema(fields int) string {
	var b strings.Builder
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="app"><xs:complexType><xs:sequence>`)
	for i := 0; i < fields; i++ {
		switch i % 4 {
		case 0:
			fmt.Fprintf(&b, `<xs:element name="text%d" type="xs:string" default="v"/>`, i)
		case 1:
			fmt.Fprintf(&b, `<xs:element name="num%d" type="xs:int" default="1"/>`, i)
		case 2:
			fmt.Fprintf(&b, `<xs:element name="enum%d"><xs:simpleType><xs:restriction base="xs:string"><xs:enumeration value="a"/><xs:enumeration value="b"/></xs:restriction></xs:simpleType></xs:element>`, i)
		default:
			fmt.Fprintf(&b, `<xs:element name="list%d" type="xs:string" maxOccurs="unbounded" minOccurs="0"/>`, i)
		}
	}
	b.WriteString(`</xs:sequence></xs:complexType></xs:element></xs:schema>`)
	return b.String()
}

func BenchmarkFig3_SchemaWizard(b *testing.B) {
	for _, fields := range []int{5, 25, 100} {
		doc := wizardSchema(fields)
		b.Run(fmt.Sprintf("parse/fields=%d", fields), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := databind.ParseSchema(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		schema, err := databind.ParseSchema(doc)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("render-form/fields=%d", fields), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				page := schemawizard.RenderForm("/x", schema.Roots[0], nil)
				if len(page) == 0 {
					b.Fatal("empty page")
				}
			}
		})
		b.Run(fmt.Sprintf("instance-roundtrip/fields=%d", fields), func(b *testing.B) {
			obj := databind.NewDataObject(schema.Roots[0])
			for j := 0; j < fields; j++ {
				if j%4 == 2 {
					if err := obj.SetField(fmt.Sprintf("enum%d", j), "a"); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				el := obj.Marshal()
				if _, err := databind.Unmarshal(schema.Roots[0], el); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// S5.2 — "Converting all of the Castor methods to WSDL ... is not really a
// practical interface": adapter facade vs raw accessor walk for the same
// job preparation, plus the method-count gap reported as a metric.
// ---------------------------------------------------------------------------

func BenchmarkS52_AdapterFacade(b *testing.B) {
	desc := &appws.Descriptor{
		Name: "Gaussian", Version: "98",
		Hosts: []appws.HostBinding{{
			DNS: "bluehorizon.sdsc.edu", IP: "1.2.3.4",
			Executable: "/usr/local/bin/gaussian",
			Queue:      appws.QueueBinding{Scheduler: grid.LSF, Queue: "normal", MaxNodes: 64, MaxWallTime: 4 * time.Hour},
		}},
	}
	schema, err := databind.ParseSchema(wizardSchema(24))
	if err != nil {
		b.Fatal(err)
	}
	generated := len(databind.AccessorNames(schema.Roots[0]))
	facade := len(appws.AdapterMethodNames())
	b.Run("facade", func(b *testing.B) {
		b.ReportMetric(float64(facade), "methods")
		for i := 0; i < b.N; i++ {
			a := appws.NewAdapter(desc)
			if err := a.ChooseHost("bluehorizon.sdsc.edu"); err != nil {
				b.Fatal(err)
			}
			_ = a.SetNodes(8)
			a.SetWallTime(time.Hour)
			a.SetArguments([]string{"-v"})
			if _, _, err := a.RunRequest(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generated-accessors", func(b *testing.B) {
		b.ReportMetric(float64(generated), "methods")
		for i := 0; i < b.N; i++ {
			obj := databind.NewDataObject(schema.Roots[0])
			for j := 0; j < 24; j += 4 {
				if err := obj.SetField(fmt.Sprintf("text%d", j), "value"); err != nil {
					b.Fatal(err)
				}
			}
			if obj.Marshal() == nil {
				b.Fatal("nil marshal")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// S5.4 — Portlet aggregation: page assembly cost as portlet count grows
// (real HTTP fetches per portlet).
// ---------------------------------------------------------------------------

func BenchmarkS54_PortletAggregation(b *testing.B) {
	remote := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<p>content</p><a href="/next">next</a>`)
	}))
	defer remote.Close()
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("portlets=%d", n), func(b *testing.B) {
			c := portlet.NewContainer(remote.Client(), "/portal")
			for i := 0; i < n; i++ {
				if err := c.Register(portlet.Entry{
					Name: fmt.Sprintf("p%d", i), Type: "WebFormPortlet",
					URL: remote.URL + "/", Title: fmt.Sprintf("P%d", i),
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page := c.RenderPage("bench")
				if strings.Count(page, `<table class="portlet"`) != n {
					b.Fatal("aggregation wrong")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// FIG4 — The portal shell: pipelines linking 1..3 core services.
// ---------------------------------------------------------------------------

func BenchmarkFig4_PortalShell(b *testing.B) {
	g := grid.NewTestbed()
	g.Authorize("bench@GRID")
	broker := srb.NewBroker("sdsc")
	broker.CreateUser("bench")
	ssp := core.NewProvider("ssp", "loopback://ssp")
	ssp.MustRegister(jobsub.NewGlobusrunService(g, "bench@GRID"))
	ssp.MustRegister(srbws.NewService(broker, "bench"))
	ssp.MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
	tr := ssp.Loopback()
	sh := portal.NewStandardShell(portal.Services{
		Script:    batchscript.NewClient(tr, "loopback://ssp/BatchScriptGenerator"),
		Globusrun: jobsub.NewGlobusrunClient(tr, "loopback://ssp/Globusrun"),
		SRB:       srbws.NewClient(tr, "loopback://ssp/SRBService"),
	})
	pipelines := map[string]string{
		"1-stage": `genscript PBS batch 2 10 /bin/echo out`,
		"2-stage": `genscript PBS batch 2 10 /bin/echo out | submitscript modi4.ncsa.uiuc.edu PBS`,
		"3-stage": `genscript PBS batch 2 10 /bin/echo out | submitscript modi4.ncsa.uiuc.edu PBS | srbput /sdsc/home/bench/out`,
	}
	for _, name := range []string{"1-stage", "2-stage", "3-stage"} {
		line := pipelines[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sh.Run(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation — raw messaging layer: envelope encode/decode and full loopback
// round trip, isolating the XML cost every experiment above pays.
// ---------------------------------------------------------------------------

func BenchmarkAblation_SOAPEnvelope(b *testing.B) {
	call := &soap.Call{ServiceNS: "urn:bench", Method: "op", Params: []soap.Value{
		soap.Str("a", strings.Repeat("x", 256)), soap.Int("b", 42), soap.Bool("c", true),
	}}
	// encode is the production request-encode path: the streamed
	// direct-to-buffer writer, no element tree.
	b.Run("encode", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			call.WireEnvelope().AppendTo(&buf)
			if buf.Len() == 0 {
				b.Fatal("empty")
			}
		}
	})
	// encode-tree is the pre-PR4 path kept as the oracle: build the
	// element tree, then render it.
	b.Run("encode-tree", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			call.Envelope().AppendTo(&buf)
			if buf.Len() == 0 {
				b.Fatal("empty")
			}
		}
	})
	// encode-response is the server-side hot path: the rpc kernel's typed
	// return values streamed straight to the wire.
	resp := &soap.Response{ServiceNS: "urn:bench", Method: "op", Returns: []soap.Value{
		soap.Str("result", strings.Repeat("y", 256)), soap.Int("count", 7),
	}}
	b.Run("encode-response", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			resp.WireEnvelope().AppendTo(&buf)
			if buf.Len() == 0 {
				b.Fatal("empty")
			}
		}
	})
	wireBytes := []byte(call.Envelope().Render())
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env, err := soap.ParseEnvelopeBytes(wireBytes)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := soap.ParseCall(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	// decode-stream is the treeless fast path over the same bytes: the
	// pooled cursor feeds parameter Values directly, no element tree. The
	// rpc kernel layers typed conversion on top of exactly this loop.
	b.Run("decode-stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := soap.AcquireBodyReader(wireBytes)
			_, _, ok := r.Begin()
			n := 0
			var v soap.Value
			for ok {
				done, vok := r.ReadValueInto(&v)
				if !vok {
					ok = false
					break
				}
				if done {
					break
				}
				n++
			}
			if !ok || !r.Finish() || n != 3 {
				r.Release()
				b.Fatal("stream decode outside subset")
			}
			r.Release()
		}
	})
}

// ---------------------------------------------------------------------------
// RESILIENCE — the full guard set the guarded ladder rung and the parallel
// tier's loopback-resilient variant switch on (no cmd/ binary wires it).
// ---------------------------------------------------------------------------

// resilientClient wraps the endpoint with the full client-side guard set.
// The policies are shared when callers pass the same pointers, matching how
// a portal binary configures one policy per downstream service.
func resilientClient(tr soap.Transport, endpoint string,
	retry *resilience.RetryPolicy, breakers *resilience.BreakerSet) *core.Client {
	cl := core.NewClient(tr, endpoint, batchscript.Contract())
	cl.Retry = retry
	cl.Breakers = breakers
	return cl
}

func benchRetryPolicy() *resilience.RetryPolicy {
	return &resilience.RetryPolicy{
		MaxAttempts: 3,
		Backoff:     resilience.Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond},
		Seed:        1,
	}
}

func benchBreakerSet() *resilience.BreakerSet {
	return &resilience.BreakerSet{Config: resilience.BreakerConfig{
		FailureThreshold: 5, OpenFor: 50 * time.Millisecond,
	}}
}

// ---------------------------------------------------------------------------
// PARALLEL — multi-core scale-out tier. Every benchmark above drives the
// stack from one goroutine; these drive it from GOMAXPROCS goroutines via
// b.RunParallel so cross-request contention becomes visible. Run with
// -cpu 1,4,8 to trace the scaling curve; the sharded stores, the
// segmented response cache, and the lock-free stats collector are exactly
// the layers being contended on. Each sub-benchmark has a loopback variant
// (in-process dispatch, serialise+reparse for wire fidelity) and an http
// variant (real TCP through net/http).
// ---------------------------------------------------------------------------

// parallelServer assembles the full hosting stack (stats middleware,
// recovery, optional extra middleware) around the given services, exactly
// as the binaries do, so the parallel tier contends on everything a real
// deployment would.
func parallelServer(b *testing.B, svcs ...*core.Service) *rpc.Server {
	b.Helper()
	srv := rpc.NewServer("bench-par", "loopback://par")
	p := srv.Provider("")
	for _, svc := range svcs {
		p.MustRegister(svc)
	}
	return srv
}

// parallelHTTP exposes the server over real HTTP and returns a transport
// whose connection pool is wide enough that scaling measures the server,
// not the client's idle-connection limit.
func parallelHTTP(b *testing.B, srv *rpc.Server) (soap.Transport, string, func()) {
	b.Helper()
	hs := httptest.NewServer(srv.Handler())
	srv.SetBaseURL(hs.URL)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 128}}
	cleanup := func() {
		hc.CloseIdleConnections()
		hs.Close()
	}
	return &soap.HTTPTransport{Client: hc}, hs.URL, cleanup
}

func BenchmarkParallel_SOAPInvoke(b *testing.B) {
	run := func(b *testing.B, tr soap.Transport, endpoint string) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			cl := batchscript.NewClient(tr, endpoint)
			for pb.Next() {
				if _, err := cl.GenerateScript(benchRequest); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("loopback", func(b *testing.B) {
		srv := parallelServer(b, batchscript.NewService(batchscript.NewIUGenerator()))
		run(b, srv.Transport(), "loopback://par/BatchScriptGenerator")
	})
	b.Run("http", func(b *testing.B) {
		srv := parallelServer(b, batchscript.NewService(batchscript.NewIUGenerator()))
		tr, base, cleanup := parallelHTTP(b, srv)
		defer cleanup()
		run(b, tr, base+"/BatchScriptGenerator")
	})
	// Full guard set under contention: Deadline + LoadShed admission on the
	// server, one shared RetryPolicy + BreakerSet across all client
	// goroutines — the shedder's admission counter and the breaker's shared
	// state are exactly the cross-request words being hammered.
	b.Run("loopback-resilient", func(b *testing.B) {
		srv := rpc.NewServer("bench-par", "loopback://par")
		p := srv.Provider("", rpc.Deadline(time.Second), rpc.LoadShed(256, 512))
		p.MustRegister(batchscript.NewService(batchscript.NewIUGenerator()))
		retry, breakers := benchRetryPolicy(), benchBreakerSet()
		tr := srv.Transport()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			cl := resilientClient(tr, "loopback://par/BatchScriptGenerator", retry, breakers)
			for pb.Next() {
				if _, err := cl.CallText("generateScript", benchGenerateParams...); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkParallel_CachedInquiry(b *testing.B) {
	// Discovery traffic as uddiserver serves it: the response cache
	// memoises the repeated findServiceByTModel inquiry, so after one miss
	// every request is a cache hit — the benchmark measures whether hits
	// scale or serialise behind the cache's locking.
	setup := func(b *testing.B) (*core.Service, string) {
		reg := uddi.NewRegistry()
		biz, _ := reg.SaveBusiness(uddi.BusinessEntity{Name: "IU"})
		gen := batchscript.NewIUGenerator()
		if _, err := batchscript.PublishUDDI(reg, biz.Key, "IU BSG",
			"loopback://par/BatchScriptGenerator", gen); err != nil {
			b.Fatal(err)
		}
		tm, _ := reg.TModelByName(batchscript.TModelName)
		svc := uddi.NewService(reg)
		cache := rpc.NewResponseCache(time.Minute, 4096)
		svc.Use(cache.Middleware(rpc.OpPrefixes("find", "get")))
		return svc, tm.Key
	}
	run := func(b *testing.B, tr soap.Transport, endpoint, tmKey string) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			cl := uddi.NewClient(tr, endpoint)
			for pb.Next() {
				services, err := cl.FindServiceByTModel(tmKey)
				if err != nil {
					b.Fatal(err)
				}
				if len(services) != 1 {
					b.Fatal("discovery failed")
				}
			}
		})
	}
	b.Run("loopback", func(b *testing.B) {
		svc, tmKey := setup(b)
		srv := parallelServer(b, svc)
		run(b, srv.Transport(), "loopback://par/UDDIRegistry", tmKey)
	})
	b.Run("http", func(b *testing.B) {
		svc, tmKey := setup(b)
		srv := parallelServer(b, svc)
		tr, base, cleanup := parallelHTTP(b, srv)
		defer cleanup()
		run(b, tr, base+"/UDDIRegistry", tmKey)
	})
}

func BenchmarkParallel_ContextReadWrite(b *testing.B) {
	// A portal's session-state traffic: each goroutine works its own user
	// subtree (own shard) with a 3-reads-per-write property mix through the
	// monolith SOAP interface. The pre-sharding store serialised every one
	// of these on a single store mutex.
	const users = 32 // enough for any -cpu value the tier is run at
	setup := func(b *testing.B) *core.Service {
		store := contextmgr.NewStore()
		for u := 0; u < users; u++ {
			path := []string{fmt.Sprintf("user-%d", u), "cfd", "session1"}
			for depth := 1; depth <= len(path); depth++ {
				if err := store.Create(path[:depth]); err != nil {
					b.Fatal(err)
				}
			}
			if err := store.SetProp(path, "input", "deck-0"); err != nil {
				b.Fatal(err)
			}
		}
		return contextmgr.NewMonolithService(store)
	}
	run := func(b *testing.B, tr soap.Transport, endpoint string) {
		var next atomic.Int32
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			user := fmt.Sprintf("user-%d", int(next.Add(1)-1)%users)
			cl := core.NewClient(tr, endpoint, contextmgr.MonolithContract())
			pathArgs := []soap.Value{
				soap.Str("user", user), soap.Str("problem", "cfd"), soap.Str("session", "session1"),
			}
			i := 0
			for pb.Next() {
				var err error
				if i%4 == 0 {
					_, err = cl.CallText("setSessionProperty",
						append(pathArgs, soap.Str("name", "input"), soap.Str("value", "deck-1"))...)
				} else {
					_, err = cl.CallText("getSessionProperty",
						append(pathArgs, soap.Str("name", "input"))...)
				}
				if err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
	b.Run("loopback", func(b *testing.B) {
		srv := parallelServer(b, setup(b))
		run(b, srv.Transport(), "loopback://par/ContextManager")
	})
	b.Run("http", func(b *testing.B) {
		srv := parallelServer(b, setup(b))
		tr, base, cleanup := parallelHTTP(b, srv)
		defer cleanup()
		run(b, tr, base+"/ContextManager")
	})
}
