// Package gateway is the federated front door over a fleet of portal
// providers. Where rpc.Server hosts services on one node, the gateway
// makes several such nodes look like a single portal — the paper's
// interoperability promise carried one level up, from services that
// compose across groups to whole deployments that compose across sites.
// It is built entirely from the published contracts: the gateway learns
// what a backend offers the same way any client would, by reading its
// WS-Inspection document and the WSDL it points at.
//
// # Federation by inspection
//
// Mount crawls each backend's /inspection.wsil, fetches every advertised
// WSDL, and mounts the service on the gateway under the path it occupies
// on the backend. A service advertised by several backends becomes one
// replicated route; each additional replica's interface is checked with
// wsdl.CheckCompatible against the first-mounted contract and rejected on
// divergence, enforcing the agreed-interface discipline at federation
// time rather than at first failing call. The gateway republishes an
// aggregated inspection document (one entry per federated service,
// pointing at the gateway's own WSDL republication, plus links to every
// backend) so discovery composes transitively.
//
// # Ownership and routing
//
// A route is stateful when its first-mounted contract has an operation
// not marked idempotent (UDDI, the XML registry, the context stores);
// it is stateless when every operation is (BatchScriptGenerator). The
// class is fixed when the route is added.
//
// A stateful route has one owner: the first of its replicas on the ring
// sequence of the route path's hash, chosen without regard to health.
// Every request of the service goes to the owner, reads included, so a
// read through the gateway sees every write before it, and only the
// owner's rpc.ResponseCache fills; the cache middleware flushes it on the
// owner's own writes, and nothing else needs flushing. There is no
// failover: if the owner's circuit is open or the forward fails, the
// caller gets a typed Unavailable fault with Retry-After and keeps the
// retry decision. Idempotent is no guide here, because it also marks
// absolute writes (setProperty): one landing on another replica would
// vanish when the owner came back. Mounting another backend later can
// move a route's owner, and no state moves with it; the gateway binary
// mounts its fleet once, at start.
//
// A stateless route spreads by consistent hashing: the path and request
// body hash to a point on a virtual-node ring over the mounted backends,
// and the request goes to the first replica clockwise whose circuit
// breaker admits it, walking on to the next if the forward fails. The
// same inquiry therefore lands on the same replica, keeping its cache
// warm, while a node loss remaps only the keys that hashed into its arcs.
//
// Health comes from two feeds into one resilience.BreakerSet: a
// background /healthz prober (StartHealth) and the live outcome of every
// forwarded call. An open circuit removes the node from the healthy set;
// after the open window a half-open probe readmits it.
//
// # Relay semantics
//
// The gateway forwards request bytes verbatim and relays response bytes,
// HTTP status, and Retry-After unchanged — a fault raised by a backend
// arrives at the caller exactly as the backend wrote it, so end-to-end
// byte-identity with a direct connection holds (the golden suite and the
// chaos tests pin this). Only a stateless route, whose operations are all
// idempotent, retries a failed forward on another replica; a stateful
// route's lost response may mean an executed write, so the gateway
// returns a typed Unavailable fault instead of risking a duplicate.
package gateway
