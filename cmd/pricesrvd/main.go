// Command pricesrvd serves binomial option pricing over HTTP: the
// data-centre front end the paper's use case implies. Requests are
// micro-batched, scheduled across one shard per accel-registry platform
// (FPGA kernel IV.B, GTX660, Xeon reference, plus any extra registered
// target), answered from an LRU result cache when the tape repeats, and
// metered on /metrics.
//
//	pricesrvd -addr :8080 -steps 1024
//	pricesrvd -backends
//	curl -s localhost:8080/v1/price -d '{"right":"put","style":"american","spot":100,"strike":105,"rate":0.03,"sigma":0.2,"t":0.5}'
//
// POST /v1/scenarios revalues a whole portfolio under a set of market
// shocks (explicit list or a spot×vol×rate grid) in one request,
// answering per-scenario P&L, net Greeks and VaR/ES quantiles — the
// stress-testing workload `loadgen -scenarios` drives:
//
//	curl -s localhost:8080/v1/scenarios -d '{
//	  "portfolio":[{"contract":{"right":"put","style":"american","spot":100,"strike":105,"rate":0.03,"sigma":0.2,"t":0.5},"quantity":10}],
//	  "grid":{"spot":{"from":0.8,"to":1.2,"n":9},"vol":{"from":0.9,"to":1.3,"n":5}},
//	  "quantiles":[0.95,0.99]}'
//
// Observability: span tracing is on by default (-trace=false disables);
// GET /debug/trace returns the recent span window as Chrome trace-event
// JSON for chrome://tracing or Perfetto, decomposing every priced
// option into batch/queue/compute/readback host phases and the modelled
// device commands of the shard that priced it. -debug-addr starts a
// second listener with net/http/pprof (plus the same /debug/trace), so
// profiling never shares a port with production traffic. GET /debug/slo
// reports the multi-window burn-rate monitor over the latency and
// availability objectives (-slo=false disables; /healthz folds the same
// state in as "burning"), and -log-level selects the structured
// (log/slog) request-log verbosity, trace-ID-tagged so a slow request's
// log lines grep straight into its /debug/trace timeline.
//
// Chaos: -faults arms a deterministic fault injector on the backend
// engines (spec grammar in internal/faults), exercising the pool's
// circuit breakers and retry-with-failover; pair with `loadgen -chaos`
// to verify no injected fault ever reaches a client:
//
//	pricesrvd -faults 'gpu-ivb:err=0.2' -fault-seed 7
//	loadgen -chaos -target 0
//
// SIGINT/SIGTERM drain gracefully: the listener stops, the batching
// queue flushes, and every admitted option completes before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"binopt/internal/accel"
	"binopt/internal/faults"
	"binopt/internal/lattice"
	"binopt/internal/obslog"
	"binopt/internal/serve"
	"binopt/internal/slo"
	"binopt/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		steps     = flag.Int("steps", 1024, "binomial tree depth (the paper evaluates at 1024)")
		maxBatch  = flag.Int("max-batch", 64, "micro-batch size trigger (options per flush)")
		flushMs   = flag.Duration("flush", 2*time.Millisecond, "micro-batch deadline trigger")
		queue     = flag.Int("queue-depth", 8192, "max admitted options before 429")
		cacheSize = flag.Int("cache", 65536, "LRU result cache capacity (negative disables)")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		backends  = flag.Bool("backends", false, "list the registered backend platforms and exit")
		trace     = flag.Bool("trace", true, "span tracing and the /debug/trace Chrome-trace endpoint")
		traceBuf  = flag.Int("trace-buf", 65536, "span ring capacity (older spans are dropped)")
		debugAddr = flag.String("debug-addr", "", "separate listener for net/http/pprof and /debug/trace (empty disables)")
		node      = flag.String("node", "", "node name tagged onto spans and log lines (useful when several pricesrvd form a fleet)")

		sloOn      = flag.Bool("slo", true, "multi-window burn-rate SLO monitor and the /debug/slo endpoint")
		sloLatency = flag.Duration("slo-latency", 0, "per-request latency threshold for the SLO latency objective (0 = default 250ms)")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error, or off")

		faultSpec = flag.String("faults", "", "chaos: fault spec armed on the backend engines, e.g. 'gpu-ivb:err=0.2' or '*:lat=5ms@0.1' (empty disables)")
		faultSeed = flag.Int64("fault-seed", 1, "chaos: fault schedule PRNG seed (same seed, same schedule)")

		maxAttempts = flag.Int("max-attempts", 3, "shards a single option may be tried on before its error reaches the client (1 disables failover)")
		brThreshold = flag.Float64("breaker-threshold", 0, "windowed error rate that opens a shard's circuit breaker (0 = default 0.1)")
		brCooldown  = flag.Duration("breaker-cooldown", 0, "how long an open breaker rejects dispatch before probing (0 = default 250ms)")
	)
	flag.Parse()

	if *backends {
		if err := listBackends(os.Stdout, *steps); err != nil {
			fmt.Fprintln(os.Stderr, "pricesrvd:", err)
			os.Exit(1)
		}
		return
	}

	cfg := serverConfig{
		addr: *addr, steps: *steps, maxBatch: *maxBatch, flush: *flushMs,
		queue: *queue, cacheSize: *cacheSize, drain: *drain,
		trace: *trace, traceBuf: *traceBuf, debugAddr: *debugAddr, node: *node,
		sloOn: *sloOn, sloLatency: *sloLatency, logLevel: *logLevel,
		faultSpec: *faultSpec, faultSeed: *faultSeed,
		maxAttempts: *maxAttempts, brThreshold: *brThreshold, brCooldown: *brCooldown,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pricesrvd:", err)
		os.Exit(1)
	}
}

// listBackends prints every accel-registry platform the server would
// shard across, with its modelled rate and power at the chosen depth.
func listBackends(w io.Writer, steps int) error {
	for _, p := range accel.Platforms() {
		d := p.Describe()
		est, err := p.Estimate(steps, accel.Options{})
		if err != nil {
			return fmt.Errorf("backend %s: %w", d.Name, err)
		}
		fmt.Fprintf(w, "%-18s %-9s %-24s kernel %-9s %10.0f options/s  %5.1f W\n",
			d.Name, d.Kind, d.Device, d.DefaultKernel, est.OptionsPerSec, est.PowerWatts)
	}
	return nil
}

type serverConfig struct {
	addr      string
	steps     int
	maxBatch  int
	flush     time.Duration
	queue     int
	cacheSize int
	drain     time.Duration
	trace     bool
	traceBuf  int
	debugAddr string
	node      string

	sloOn      bool
	sloLatency time.Duration
	logLevel   string

	faultSpec   string
	faultSeed   int64
	maxAttempts int
	brThreshold float64
	brCooldown  time.Duration
}

// parseLogLevel maps the -log-level flag onto slog's scale. The second
// return is false for "off": structured logging disabled outright, not
// merely filtered.
func parseLogLevel(s string) (slog.Level, bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, true, nil
	case "info", "":
		return slog.LevelInfo, true, nil
	case "warn":
		return slog.LevelWarn, true, nil
	case "error":
		return slog.LevelError, true, nil
	case "off":
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("-log-level must be debug, info, warn, error or off, got %q", s)
}

// debugHandler builds the auxiliary listener's mux: the pprof family
// plus the trace endpoint, so one curl fetches either a CPU profile or
// a request timeline.
func debugHandler(srv *serve.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/trace", srv.Handler()) // serves 404 when tracing is off
	return mux
}

// checkFaultScopes rejects fault clauses naming a backend the pool does
// not contain — a typoed shard name must fail loudly, not silently arm
// nothing.
func checkFaultScopes(inj *faults.Injector, backends []serve.BackendConfig) error {
	known := make(map[string]bool, len(backends))
	for _, bc := range backends {
		known[bc.Name] = true
	}
	for _, name := range inj.Backends() {
		if name != "*" && !known[name] {
			return fmt.Errorf("fault spec scopes unknown backend %q (have %v)", name, accel.Names())
		}
	}
	return nil
}

// armFaults installs the injector's hooks on the backend engines. It
// runs after serve.New so the startup parity probe prices clean — chaos
// starts with serving, not with construction.
func armFaults(inj *faults.Injector, backends []serve.BackendConfig) {
	for _, bc := range backends {
		if bc.Engine == nil {
			continue
		}
		if h := inj.HookFor(bc.Name); h != nil {
			bc.Engine.SetFaultHook(h)
			log.Printf("pricesrvd: chaos: faults armed on %s (spec %q, seed %d)", bc.Name, inj.String(), inj.Seed())
		}
	}
}

func run(cfg serverConfig) error {
	var tracer *telemetry.Tracer
	if cfg.trace {
		tracer = telemetry.New(cfg.traceBuf)
	}
	level, logOn, err := parseLogLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	var logger *slog.Logger
	if logOn {
		logger = obslog.New(os.Stderr, "serve", level)
	}
	var sloOpts *slo.Options
	if cfg.sloOn {
		sloOpts = &slo.Options{LatencyThreshold: cfg.sloLatency}
	}
	inj, err := faults.Parse(cfg.faultSpec, cfg.faultSeed)
	if err != nil {
		return err
	}
	backends, err := serve.DefaultBackends(cfg.steps)
	if err != nil {
		return err
	}
	if inj.Active() {
		if err := checkFaultScopes(inj, backends); err != nil {
			return err
		}
	}
	srv, err := serve.New(serve.Config{
		Steps:         cfg.steps,
		MaxBatch:      cfg.maxBatch,
		FlushInterval: cfg.flush,
		QueueDepth:    cfg.queue,
		CacheSize:     cfg.cacheSize,
		Backends:      backends,
		MaxAttempts:   cfg.maxAttempts,
		Breaker: serve.BreakerConfig{
			Threshold: cfg.brThreshold,
			Cooldown:  cfg.brCooldown,
		},
		Tracer: tracer,
		Node:   cfg.node,
		SLO:    sloOpts,
		Logger: logger,
	})
	if err != nil {
		return err
	}
	if inj.Active() {
		armFaults(inj, backends)
	}

	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("pricesrvd: listening on %s (steps=%d, max-batch=%d, flush=%s, queue=%d, cache=%d, trace=%v, quad-kernel=%s)",
			cfg.addr, cfg.steps, cfg.maxBatch, cfg.flush, cfg.queue, cfg.cacheSize, cfg.trace, lattice.QuadKernel())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	var dbgSrv *http.Server
	if cfg.debugAddr != "" {
		dbgSrv = &http.Server{Addr: cfg.debugAddr, Handler: debugHandler(srv)}
		go func() {
			log.Printf("pricesrvd: debug listener (pprof + trace) on %s", cfg.debugAddr)
			if err := dbgSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pricesrvd: debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("pricesrvd: draining (%d options in flight, budget %s)", srv.QueueDepth(), cfg.drain)
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if dbgSrv != nil {
		dbgSrv.Shutdown(dctx)
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Close(dctx); err != nil {
		return err
	}
	log.Printf("pricesrvd: drained cleanly")
	return <-errc
}
