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
// concurrency with a bounded queue; see Resilience), Stats (request
// counts and latency, served at /healthz), and ResponseCache (see Response
// caching).
//
// A middleware normally answers by returning values, which the kernel
// encodes. It may instead answer with a complete serialised response
// envelope through core.Context.Respond; it then returns nil values and a
// nil error, so every middleware outside it sees nil returns (an error
// returned further out still turns the answer into a fault). Deadline
// carries such an answer back from its detached run. ResponseCache is the
// one middleware that answers this way.
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
// # Request decoding — one streaming decoder
//
// core.Provider.Serve — the one entry point HTTP and in-process requests
// share — decodes every request with soap.BodyReader, a one-pass walk
// over the pooled xmlutil.Cursor. It reads the first Body entry's
// parameters straight off the wire tokens into pooled soap.Values,
// carries the first Header's entries as element subtrees for middleware
// (the SAML assertion RequireAssertion checks), and builds a tree only
// where a caller navigates one: a parameter outside the flat scalar/array
// shape (a literal-XML payload, an untyped item array, a typed element
// with children) is carved into a pooled arena and read by
// soap.ParseValue. The kernel handler then types the raw values once
// against the Op's In table, validating scalars through databind, and
// hands the typed Args to the implementation. Nothing is configured per
// service: every Def decodes the same way.
//
// The decoder accepts exactly what the tree parser accepts and faults as
// the tree dispatch did: a syntax error anywhere in the body wins over
// the structural, unknown-service, no-such-method and BadRequest faults.
// The tree dispatch survives as a test oracle (TreeOracle, in the package
// tests): FuzzStreamVsTreeDispatch requires byte-identical HTTP responses
// from it and from Serve for arbitrary bodies, and the golden suite runs
// every service through both. The decoded request — pooled values,
// header entries, arena — is recycled once the response is rendered,
// unless the chain was abandoned, and /healthz counts the decoded
// requests under "decode".
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
// one-second Retry-After advice (counted by Stats as resilience.shed).
// Neither is wired by the cmd/ binaries, which run only the graceful
// drain and, at the gateway, per-backend breakers. Client side,
// core.Client gains a RetryPolicy (pre-execution rejections always
// retry; ambiguous failures — timeouts, transport errors — retry only
// ops flagged Idempotent in the Def table) and a per-endpoint circuit
// BreakerSet that fails fast while an endpoint is down and probes it
// half-open. Server.Shutdown drains in-flight requests before returning
// (ListenAndServeGraceful wires this to SIGTERM/SIGINT for the
// binaries); requests arriving mid-drain get an Unavailable fault.
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
// # Response caching
//
// ResponseCache memoises idempotent inquiries (UDDI find*/get*,
// xmlregistry queries) per service, keyed by namespace, operation and the
// canonicalised parameters, under a TTL and a per-segment LRU bound; a
// successful non-cacheable operation (a write) flushes it. The cache is
// local to its node and nothing flushes it from outside: behind the
// gateway, every request of a service with writes goes to one owning
// backend, so the node that takes a write is the only one that caches
// the service's answers (see package gateway). Each entry is the
// answer's complete serialised response envelope, one flat byte slice:
// a stored miss encodes the handler's returns once, with the encoder
// Provider.Serve uses, and a hit is answered by
// appending the stored bytes through core.Context.Respond, with no tree
// and no encode. A key whose entry a flush dropped unread is stored again
// only on its second miss after that flush, so a write-heavy mix does not
// copy answers that the next write throws away. The bytes
// are the uncached answer by construction; FuzzCachedVsUncached pins it
// against an uncached provider over sequences of finds, gets, saves and
// deletes, faults, XML returns and a Deadline-wrapped chain included.
//
//	cache := rpc.NewResponseCache(30*time.Second, 4096)
//	svc.Use(cache.Middleware(rpc.OpPrefixes("find", "get")))
//	srv.Stats().RegisterCache("uddi", cache) // hits, misses, declined, entries at /healthz
//
// # Response encoding
//
// Handler return values are encoded by the kernel through the streaming
// xmlutil.Writer: scalar, boolean, numeric, and string-array returns are
// written straight to the wire buffer and never materialise an element
// tree. An "xml"-typed return takes one of two forms:
//
//   - a func(*xmlutil.Writer) that writes the payload, one root element,
//     as Start/Attr/Text/End events. Return it when the answer is
//     rendered from records the service holds (every UDDI find and get):
//     nothing is built only to be thrown away once written. The function
//     runs after the handler returns, in the kernel's encode or the
//     response cache's, so it must read only data no later call changes:
//     immutable records or the handler's own copies.
//   - an *xmlutil.Element. Return it when the package already has the
//     payload's tree form, a converter its other callers use too
//     (xmlregistry containers, application descriptors, context archives,
//     SRB listings, job results); Writer.Element bridges it onto the
//     wire. Moving such an answer to a writer pays where a profile shows
//     its tree, as one did for the UDDI finds.
//
// Both forms put the same bytes on the wire for the same document, and
// the WSDL declares both as xml. The wire bytes are pinned by the golden
// conformance suite in golden_test.go (regenerate with -update after an
// intentional format change).
package rpc
