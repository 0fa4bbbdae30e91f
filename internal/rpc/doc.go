// Package rpc is the declarative service kernel every portal service is
// built on. It realises the paper's common-architecture discipline — one
// SOAP/WSDL contract mechanism shared by all services — as three layers:
//
// # Descriptor layer
//
// A service is a Def: a name, namespace, and a table of Op descriptors,
// each declaring the operation's typed parameters and returns
// (wsdl.Param) next to its implementation. The kernel derives the
// wsdl.Interface from the same table, registers every handler, and owns
// the codec: wire parameters are decoded and validated (through the
// databind XSD bridge) into typed Args before the handler runs, and the
// handler's ordered return values are encoded back per the Out table.
// Service code never touches soap.Value, and contract and implementation
// cannot drift.
//
//	def := &rpc.Def{
//	    Name: "Echo", NS: "urn:echo",
//	    Ops: []rpc.Op{{
//	        Name: "say",
//	        In:   []wsdl.Param{rpc.Str("msg")},
//	        Out:  []wsdl.Param{rpc.Str("echo")},
//	        Handle: func(c *core.Context, in rpc.Args) ([]interface{}, error) {
//	            return rpc.Ret(in.Str("msg")), nil
//	        },
//	    }},
//	}
//	svc := def.MustBuild() // a deployable *core.Service
//
// # Middleware layer
//
// Cross-cutting behaviour composes as core.Middleware — func(next
// core.HandlerFunc) core.HandlerFunc — chained provider-wide or
// per-service via Use. The kernel ships RequireAssertion (GSS/SAML auth
// enforcement), Logging, Recover (panic to SOAP fault), LoadShed (bounded
// concurrency with a bounded queue; see Resilience), and Stats (request
// counts and latency, served at /healthz).
//
// # Hosting layer
//
// Server assembles the HTTP surface: providers mounted under path
// prefixes (with WSDL GET handling), the WS-Inspection document at
// /inspection.wsil, /healthz, and pass-through handlers for UI pages.
// Recovery and stats middleware are attached to every provider
// automatically. Server.Transport() gives an in-process transport over
// the same dispatch path for examples and tests.
//
//	srv := rpc.NewServer("portal", "http://localhost:8080")
//	ssp := srv.Provider("/ssp", rpc.Logging(nil))
//	ssp.MustRegister(def.MustBuild())
//	log.Fatal(srv.ListenAndServe(":8080"))
//
// Registering a new service is therefore: declare a Def table, build it,
// and register it on a mounted provider — discovery (WSDL, WSIL, UDDI
// publication) and operations concerns are inherited from the kernel.
//
// # Request decoding — the streaming fast path
//
// Build compiles, besides the tree-path codecs, a per-Op streaming codec
// for every operation whose In table is within the streaming subset
// (string, int, boolean, and strings parameters; an xml-typed parameter
// makes the operation tree-only). The compiled codecs implement
// core.StreamDecoder and are installed as Service.Stream, so the
// provider's raw dispatch path offers every request body to them first:
// a soap.BodyReader walks the envelope tokens and the codec decodes each
// parameter straight into its typed Args slot — no element tree, no
// arena.
//
// The fallback contract: the streaming path may reject a request at any
// depth — a Header entry, a literal-XML parameter, a soapenc:Array
// nested inside another, a fault body, an unknown operation, malformed
// bytes — and rejection is always transparent. The request re-runs
// through the pooled tree parse and the tree codecs, which remain the
// semantic authority (exact fault texts included). Handlers cannot tell
// the paths apart: both deliver the same typed Args, the same
// core.Context shape (the fast path sets Context.Decoded), and encode
// responses identically. Equivalence is enforced differentially by
// FuzzStreamVsTreeDispatch, which requires byte-identical HTTP responses
// from a fast-path server and a tree-only server for arbitrary bodies;
// the fast-path/tree-path split is observable at /healthz under
// "decode".
//
// # Resilience
//
// The kernel degrades deterministically instead of hanging or collapsing
// under failure. Server side, two middlewares bound every request:
// Deadline(d) runs the inner chain on a pooled watchdog goroutine and
// answers with the portal-standard Timeout fault when the budget (or a
// tighter caller deadline — the context passed to core.Client.Call rides
// soap.Transport.RoundTripRawCtx over HTTP and in-process alike) expires,
// abandoning the runaway handler safely; LoadShed(limit, queue)
// admits limit concurrent requests, queues a bounded overflow, and
// rejects the rest immediately with a ServerBusy fault carrying
// Retry-After advice. Client side, core.Client gains a RetryPolicy
// (pre-execution rejections always retry; ambiguous failures —
// timeouts, transport errors — retry only ops flagged Idempotent in the
// Def table) and a per-endpoint circuit BreakerSet that fails fast while
// an endpoint is down and probes it half-open. Server.Shutdown drains
// in-flight requests before returning (ListenAndServeGraceful wires this
// to SIGTERM/SIGINT for the binaries); requests arriving mid-drain get
// an Unavailable fault.
//
//	srv := rpc.NewServer("portal", "http://localhost:8080")
//	ssp := srv.Provider("/ssp", rpc.Deadline(2*time.Second), rpc.LoadShed(64, 128))
//	ssp.MustRegister(def.MustBuild())
//
//	cl := core.NewClient(tr, endpoint, def.Interface())
//	cl.Retry = &resilience.RetryPolicy{MaxAttempts: 3,
//	    Backoff: resilience.Backoff{Base: 50 * time.Millisecond, Max: time.Second}}
//	cl.Breakers = &resilience.BreakerSet{}
//	srv.Stats().RegisterBreakers("downstream", cl.Breakers) // state at /healthz
//
// Every degradation is a typed fault with a deterministic text (pinned by
// the golden suite: timeoutfault, serverbusyfault), every counter —
// timeouts, shed, drained, retries, breaker state transitions — is
// surfaced at /healthz under "resilience", and the whole layer is
// exercised by the seeded fault-injection chaos suite in chaos_test.go
// (FaultInjector middleware + soap.ChaosTransport), which asserts no
// goroutine leaks, no torn store state, and that retries never duplicate
// non-idempotent writes.
//
// # Response encoding
//
// Handler return values are encoded by the kernel through the streaming
// xmlutil.Writer: scalar, boolean, numeric, and string-array returns are
// written straight to the wire buffer and never materialise an element
// tree. Handlers only still build trees for "xml"-typed returns — an
// *xmlutil.Element payload (job results, registry containers, descriptors)
// constructed with the xmlutil builders and bridged onto the wire by
// Writer.Element. That is the intended division: build a tree when the
// payload is a document the caller will navigate, return plain values
// otherwise and let the kernel stream them. The wire bytes of both paths
// are pinned by the golden conformance suite in golden_test.go
// (regenerate with -update after an intentional format change).
package rpc
