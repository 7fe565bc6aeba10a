// Command simd serves the GPU simulator as a network service: an HTTP/JSON
// API over the sweep engine with a content-addressed result store, so any
// run computed once — by any client — is a cache hit forever after (the
// simulator is deterministic; see DESIGN.md "Determinism-based result
// caching").
//
//	simd                         # serve on 127.0.0.1:8404, store in ./simstore
//	simd -addr :9000 -workers 8  # all interfaces, pinned simulation pool
//	simd -addr 127.0.0.1:0       # random port (printed on startup)
//
// Several daemons form a cluster through seed-node gossip: the first daemon
// starts with -seeds "" (bootstrap), every later one points -seeds at any
// running member and is absorbed without restarting anyone. Runs are
// sharded across members by rendezvous hashing of their fingerprint: any
// daemon accepts any request and transparently forwards each run to its
// owner (handle-based — a forward never pins a connection), and each stored
// record is replicated to the top -replicas ranked members so a killed
// owner's results survive on warm replicas.
//
//	simd -addr 127.0.0.1:8404 -store store-a -seeds ""
//	simd -addr 127.0.0.1:8405 -store store-b -seeds http://127.0.0.1:8404
//	simd -addr 127.0.0.1:8406 -store store-c -seeds http://127.0.0.1:8404
//
// Try it (scripts/simd_run.sh is submit-then-poll: POST /v1/runs answers a
// miss with a job ID, GET /v1/runs/{id} is polled until it is done; no
// request blocks on a simulation, and a member asked about a job another
// member holds answers a 307 to that member's advertised -self address):
//
//	curl -s localhost:8404/healthz
//	scripts/simd_run.sh localhost:8404 '{"benchmarks":["VA"],"measure_cycles":20000}'
//	curl -s localhost:8404/v1/cluster/membership
//	curl -s localhost:8404/metrics
//	paperfigs -figure 2 -quick -server http://localhost:8404
//
// The second identical submission returns "cached": true with byte-identical
// statistics inline, without simulating. A submitted run is never cancelled:
// two clients posting one spec share its job, so it always finishes into the
// store, and its job stays pollable until -max-jobs newer jobs have finished.
// The daemon serves runs, not figures: cmd/paperfigs -server builds the
// figures itself and submits each figure's runs as one batch to a running
// daemon (or a comma-separated list of them).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/simstore"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addrFlag    = flag.String("addr", "127.0.0.1:8404", "listen address (host:port; port 0 picks a free port)")
		storeFlag   = flag.String("store", "simstore", "result store directory (created if missing)")
		workersFlag = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		maxFlag     = flag.Int("max-entries", 0, "LRU bound on stored results and checkpoint blobs together (0 = unbounded)")
		maxBytes    = flag.Int64("max-store-bytes", 0, "LRU bound on total store bytes, results plus checkpoint blobs (0 = unbounded)")
		ckptFlag    = flag.Bool("checkpoints", false, "bank GPU state snapshots (warmup end, kernel boundaries) in the store and resume runs from matching prefixes; statistics stay byte-identical, only wall-clock time changes")
		maxJobsFlag = flag.Int("max-jobs", server.DefaultMaxJobs, "max finished jobs retained in memory: a job stays pollable until this many newer ones have finished (0 = unbounded; results persist in the store regardless)")
		seedsFlag   = flag.String("seeds", "", "comma-separated base URLs of running cluster members to join through (gossip membership; pass -seeds \"\" to bootstrap the first daemon)")
		replFlag    = flag.Int("replicas", 2, "replication factor in a cluster: each stored record and checkpoint blob is pushed to the top-K rendezvous-ranked members (<=1 disables replication)")
		hbFlag      = flag.Duration("heartbeat", time.Second, "gossip heartbeat period; suspicion and death verdicts scale from it (4x and 12x)")
		selfFlag    = flag.String("self", "", "this daemon's advertised base URL within the cluster (default: http://<resolved listen address>)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof profiling endpoints on this separate address (e.g. 127.0.0.1:6060); empty disables them")
		logFormat   = flag.String("log-format", "text", "structured access-log format on stderr: text, json, or off")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops parsing at the first non-flag, so everything after a
		// stray argument would be silently ignored.
		fmt.Fprintf(os.Stderr, "simd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		return 2
	}

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "simd: -log-format %q (want text, json, or off)\n", *logFormat)
		return 1
	}

	store, err := simstore.Open(*storeFlag, simstore.Options{MaxEntries: *maxFlag, MaxBytes: *maxBytes})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		return 1
	}

	// Listen before assembling the server: with -addr :0 the advertised
	// cluster self address is only known once the port is resolved.
	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		return 1
	}
	self := *selfFlag
	if self == "" {
		self = "http://" + ln.Addr().String()
	}
	seeds := cluster.ParsePeers(*seedsFlag)
	// -seeds "" (explicitly set but empty) bootstraps a gossip cluster of
	// one; an unset -seeds is plain single-node operation.
	gossip := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seeds" {
			gossip = true
		}
	})

	srv, err := server.New(server.Config{
		Store:       store,
		Workers:     *workersFlag,
		MaxJobs:     *maxJobsFlag,
		Checkpoints: *ckptFlag,
		Self:        self,
		Seeds:       seeds,
		Gossip:      gossip,
		Replicas:    *replFlag,
		Heartbeat:   *hbFlag,
		Logger:      logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		return 1
	}
	defer srv.Close()

	// The startup line is machine-readable: scripts extract the URL to
	// support -addr :0 (the CI smoke job does).
	clusterNote := ""
	if gossip {
		clusterNote = fmt.Sprintf(", gossip cluster as %s (%d seeds, %d replicas)", srv.Self(), len(seeds), *replFlag)
	}
	fmt.Printf("simd: listening on http://%s (store %s, %d entries, %d workers%s)\n",
		ln.Addr(), store.Dir(), store.Len(), srv.Workers(), clusterNote)

	// The pprof endpoints expose goroutine/heap/CPU internals, so they live
	// on their own opt-in listener (typically loopback-only), never on the
	// service address. Registration is explicit — the service mux must not
	// inherit anything from http.DefaultServeMux.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simd: -debug-addr: %v\n", err)
			return 1
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("simd: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go http.Serve(dln, dmux)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("simd: %s, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		return 0
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "simd: %v\n", err)
			return 1
		}
		return 0
	}
}
