// Command uddiserver runs a standalone UDDI registry as a SOAP web
// service, the discovery hub of Figure 1.
//
//	uddiserver -addr :8081
//	uddiserver -addr :8081 -data /var/lib/uddi   # durable: survives kill -9
package main

import (
	"flag"
	"log"
	"time"

	"repro/internal/rpc"
	"repro/internal/uddi"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8081", "listen address")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain budget on SIGTERM/SIGINT")
	cacheTTL := flag.Duration("cache-ttl", 30*time.Second, "response cache TTL for find*/get* inquiries (0 disables)")
	dataDir := flag.String("data", "", "directory for the registry's write-ahead log; empty = in-memory only (state is lost on restart)")
	flag.Parse()
	registry := uddi.NewRegistry()
	if *dataDir != "" {
		l, err := wal.Open(*dataDir, wal.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if err := registry.Persist(l); err != nil {
			log.Fatalf("recover registry: %v", err)
		}
		b, s, t := registry.Counts()
		log.Printf("recovered registry from %s: %d businesses, %d services, %d tModels", *dataDir, b, s, t)
	}
	srv := rpc.NewServer("uddi", "http://localhost"+*addr)
	svc := uddi.NewService(registry)
	if *cacheTTL > 0 {
		// Discovery traffic is dominated by repeated find*/get* inquiries;
		// memoise them (publishes flush the cache automatically).
		cache := rpc.NewResponseCache(*cacheTTL, 4096)
		svc.Use(cache.Middleware(rpc.OpPrefixes("find", "get")))
		srv.Stats().RegisterCache("uddi", cache)
	}
	srv.Provider("", rpc.Logging(nil)).MustRegister(svc)
	log.Printf("UDDI registry listening on %s (endpoint /UDDIRegistry, WSDL at /UDDIRegistry?wsdl, health at /healthz)", *addr)
	if err := srv.ListenAndServeGraceful(*addr, *drain); err != nil {
		log.Fatal(err)
	}
	if err := registry.ClosePersist(); err != nil {
		log.Printf("close registry log: %v", err)
	}
}
