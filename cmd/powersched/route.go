package main

// The route subcommand: the shard-router front end over N `powersched
// serve` backends (internal/cluster). It consistent-hashes session ids
// and instance digests across the -backends ring, ejects a backend
// after consecutive failed probes or requests and readmits it after
// consecutive good probes, retries idempotent requests under
// per-request deadlines with capped exponential backoff and a global
// retry budget, and sheds 429/503 + Retry-After when the cluster
// degrades. Failover and resize migration ride the backends' shared
// -state-dir journals. Timing is fixed in internal/cluster: the only
// flags are -addr, -backends and -drain.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func routeMain(args []string) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	backends := fs.String("backends", "", "comma-separated powersched serve base URLs forming the ring (required)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ring := strings.Split(*backends, ",")
	cleaned := ring[:0]
	for _, b := range ring {
		if b = strings.TrimSpace(b); b != "" {
			cleaned = append(cleaned, b)
		}
	}
	if len(cleaned) == 0 {
		return fmt.Errorf("route: -backends is required (comma-separated base URLs)")
	}

	router, err := cluster.New(cluster.Config{Backends: cleaned, Logf: log.Printf})
	if err != nil {
		return err
	}
	defer router.Close()

	server := &http.Server{
		Addr:              *addr,
		Handler:           router.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		// The write timeout must outlast the whole retry ladder (attempts
		// plus capped backoffs), or the router kills answers mid-failover.
		WriteTimeout: cluster.RequestBudget + 15*time.Second,
		IdleTimeout:  120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	log.Printf("powersched-route: routing %d backends on %s", len(cleaned), *addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("powersched-route: draining (budget %s)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = server.Shutdown(drainCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("drain budget exceeded; abandoning in-flight requests")
	}
	return err
}
