package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/snap"
)

// cmdServe runs pdxd, the PDE serving daemon: an HTTP/JSON API over a
// compiled-setting registry with request deadlines and admission
// control (see internal/server). Positional arguments are .pde files
// preloaded into the registry at startup. The daemon prints one line,
// "pdxd listening on http://ADDR", once it accepts connections, and
// drains in-flight requests on SIGINT/SIGTERM.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8642", "listen address (use :0 for an ephemeral port)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrently executing solves (0 = GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "max solves queued for a slot; beyond it requests are shed with 429 (0 = 2×max-inflight, -1 = no queue)")
	defaultDeadline := fs.Duration("default-deadline", 30*time.Second, "solve deadline when the request sends none")
	maxDeadline := fs.Duration("max-deadline", 5*time.Minute, "cap on client-requested deadlines")
	maxNodes := fs.Int64("max-nodes", 0, "server-wide generic-solver node budget; requests may only lower it (0 = unbounded)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "chase-cache byte budget (0 = 256 MiB, -1 = no byte bound)")
	cacheMaxEntries := fs.Int("cache-max-entries", 0, "chase-cache entry budget (0 = 1024, -1 = disable the cache)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	snapshotDir := fs.String("snapshot-dir", "", "directory for durable chase-cache snapshots (empty = no persistence)")
	warmFrom := fs.String("warm-from", "", "peer daemon base URL to pull cache snapshots from at startup (e.g. http://10.0.0.2:8642)")
	clusterSelf := fs.String("cluster-self", "", "this shard's advertised base URL; enables cluster mode with -cluster-peers")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated base URLs of every shard in the fleet (including or excluding this one; both work)")
	clusterProbe := fs.Duration("cluster-probe", 0, "peer health-probe interval (0 = 2s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var warmURL *url.URL
	if *warmFrom != "" {
		u, err := url.Parse(*warmFrom)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("-warm-from %q is not an http(s) base URL", *warmFrom)
		}
		warmURL = u
	}
	clusterCfg, err := clusterConfig(*clusterSelf, *clusterPeers, *clusterProbe)
	if err != nil {
		return err
	}
	var snapshots *snap.Store
	if *snapshotDir != "" {
		s, err := snap.Open(*snapshotDir)
		if err != nil {
			return fmt.Errorf("snapshot dir: %w", err)
		}
		snapshots = s
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	srv := server.New(server.Config{
		Logger:          logger,
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		MaxNodes:        *maxNodes,
		CacheMaxBytes:   *cacheMaxBytes,
		CacheMaxEntries: *cacheMaxEntries,
		Snapshots:       snapshots,
		Cluster:         clusterCfg,
	})
	defer srv.Close()
	for _, file := range fs.Args() {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		c, _, err := srv.Registry().Register(string(src))
		if err != nil {
			return fmt.Errorf("preloading %s: %w", file, err)
		}
		logger.Info("setting preloaded", "file", file, "id", c.ID, "name", c.Name, "strategy", c.Strategy)
	}
	// Warm start after preloading: a snapshot only installs when its
	// setting is already registered.
	if snapshots != nil {
		loaded, failed := srv.LoadSnapshots()
		logger.Info("snapshots loaded", "dir", snapshots.Dir(), "loaded", loaded, "rejected", failed)
	}
	if warmURL != nil {
		pulled, skipped, err := srv.WarmFrom(context.Background(), warmURL.String())
		if err != nil {
			logger.Warn("warm transfer failed", "peer", warmURL.String(), "err", err.Error())
		} else {
			logger.Info("warm transfer", "peer", warmURL.String(), "pulled", pulled, "skipped", skipped)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pdxd listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		logger.Info("draining", "timeout", drainTimeout.String())
		srv.StartDrain()
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		// Flush the write-behind snapshot queue before reporting the
		// drain complete: every admitted solve has finished by now.
		srv.Close()
		logger.Info("drained")
		return nil
	}
}
