// Command tbpointd is the TBPoint job server: a daemon that accepts
// experiment-grid jobs over HTTP (see internal/server for the API), queues
// them, runs them on the shared worker budget, shares an artifact cache
// across jobs, and re-queues unfinished work after a restart.
//
//	tbpointd -state-dir /var/lib/tbpoint &
//	curl -s localhost:8338/healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tbpoint/internal/durable"
	"tbpoint/internal/experiments"
	"tbpoint/internal/metrics"
	"tbpoint/internal/server"
)

// configFlags registers on fs the flags that set server.Config fields and
// returns the Config they fill in when fs is parsed.
func configFlags(fs *flag.FlagSet) *server.Config {
	cfg := &server.Config{}
	fs.StringVar(&cfg.StateDir, "state-dir", "", "durable state directory: job journal, artifact cache, results (required)")
	fs.IntVar(&cfg.Dispatchers, "dispatchers", 2, "concurrent jobs (each job's grid cells share the -par budget)")
	fs.Int64Var(&cfg.CacheMaxBytes, "cache-max-bytes", 0, "artifact cache byte budget; LRU entries are evicted over it (0 = unbounded)")
	fs.BoolVar(&cfg.Paused, "paused", false, "accept and journal jobs without dispatching any (drain mode; a restart without -paused runs them)")
	fs.IntVar(&cfg.MaxRequeues, "max-requeues", server.DefaultMaxRequeues, "quarantine a job after this many requeues-while-running across restarts (-1 = never)")
	return cfg
}

func main() {
	cfg := configFlags(flag.CommandLine)
	addr := flag.String("addr", "127.0.0.1:8338", "listen address (port 0 = ephemeral)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	parN := flag.Int("par", 0, "shared worker budget for independent simulations (0 = GOMAXPROCS, 1 = sequential)")
	drainTimeout := flag.Duration("drain-timeout", 0, "force-exit nonzero if graceful shutdown exceeds this (0 = wait forever)")
	verbose := flag.Bool("v", false, "log per-job lifecycle events")
	flag.Parse()

	logger := log.New(os.Stderr, "tbpointd: ", log.LstdFlags)
	// Negative Config fields are refused by server.Open; these two would
	// read as "sequential" and "wait forever".
	flag.Visit(func(f *flag.Flag) {
		if (f.Name == "par" || f.Name == "drain-timeout") && strings.HasPrefix(f.Value.String(), "-") {
			logger.Fatalf("-%s must not be negative, got %s", f.Name, f.Value)
		}
	})
	if cfg.StateDir == "" {
		fmt.Fprintln(os.Stderr, "tbpointd: -state-dir is required")
		flag.PrintDefaults()
		os.Exit(2)
	}
	experiments.Parallelism = *parN

	cfg.Metrics = metrics.New()
	if *verbose {
		cfg.Logf = logger.Printf
	}
	// Open paused, so that no job writes to the artifact cache before the
	// store's crash hook (TBPOINT_CRASH_AFTER_CHECKPOINTS) is armed; then
	// open the dispatch gate unless -paused keeps it shut.
	paused := cfg.Paused
	cfg.Paused = true
	d, err := server.Open(*cfg)
	if err != nil {
		logger.Fatal(err)
	}
	if err := d.Cache().ArmCrashHook(); err != nil {
		logger.Fatal(err)
	}
	d.SetPaused(paused)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	if *addrFile != "" {
		// Atomic, so a reader polling for the file never sees half an address.
		if err := durable.WriteFileBytes(*addrFile, []byte(ln.Addr().String()+"\n")); err != nil {
			logger.Fatal(err)
		}
	}
	mode := ""
	if paused {
		mode = ", paused"
	}
	logger.Printf("listening on http://%s (state %s, %d dispatchers%s)",
		ln.Addr(), cfg.StateDir, cfg.Dispatchers, mode)

	// ReadHeaderTimeout bounds a client that connects and never finishes its
	// request line (slowloris); IdleTimeout reaps keep-alive connections so
	// an abandoned client pool cannot pin the listener's fd budget.
	srv := &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Printf("shutting down")
		if *drainTimeout > 0 {
			// The drain deadline is the supervisor's contract: past it the
			// process exits nonzero rather than hanging. Close re-queues
			// in-flight jobs in the journal first, so nothing is lost — the
			// next process picks them up.
			time.AfterFunc(*drainTimeout, func() {
				logger.Printf("drain timeout (%s) exceeded, forcing exit", *drainTimeout)
				d.Close()
				os.Exit(1)
			})
		}
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shCtx)
	}()

	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	// Close aborts running jobs and re-queues them in the journal — a
	// graceful stop leaves exactly the state a crash would, minus torn
	// files.
	d.Close()
	logger.Printf("stopped")
}
