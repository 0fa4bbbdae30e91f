// Command gateway runs the federated portal front door: it mounts one or
// more portal backends by reading their WS-Inspection documents, then
// serves the whole fleet behind a single base URL. A service with writes
// has one owning backend that takes all of its requests, reads included,
// so a read sees the writes before it; a service whose operations are all
// idempotent is spread over its replicas by consistent hashing, with
// failover to a healthy one. It also serves an aggregated
// /inspection.wsil. The backends are mounted once, at start: mounting
// another backend later could move a service's owner, and no state moves
// with it.
//
//	gateway -addr :8080 -backends http://node1:8081,http://node2:8082
//
// Useful endpoints once running:
//
//	/<service path>            forwarded SOAP endpoint (?wsdl for the contract)
//	/inspection.wsil           aggregated WS-Inspection document
//	/healthz                   per-op stats and backend circuit states
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/rpc"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (required)")
	baseURL := flag.String("base", "", "externally visible base URL (default http://localhost<addr>)")
	poll := flag.Duration("poll", 2*time.Second, "health poll interval")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM/SIGINT")
	flag.Parse()
	if *backends == "" {
		log.Fatal("gateway: -backends is required")
	}
	base := *baseURL
	if base == "" {
		base = "http://localhost" + *addr
	}

	gw := gateway.New("gateway", base)
	var fleet []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			fleet = append(fleet, b)
		}
	}
	if err := gw.Mount(fleet...); err != nil {
		log.Fatal(err)
	}
	gw.StartHealth(*poll)
	defer gw.Close()

	httpSrv := rpc.NewHTTPServer(*addr, gw.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("gateway listening on %s (base %s), federating %s", *addr, base, strings.Join(fleet, ", "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("gateway: %v, draining for up to %s", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("gateway: drain incomplete: %v", err)
		}
	}
}
