// Command pricefleet runs the distributed pricing fabric: a
// consistent-hash router over a fleet of pricing nodes, speaking the
// same /v1/price API as a single pricesrvd — clients cannot tell one
// board from a rack. Two modes:
//
// In-process mode boots M full serving nodes inside this binary, each
// with its own shard pool, result cache and gossip wiring — the whole
// modelled data centre in one command:
//
//	pricefleet -addr :9090 -nodes 3 -steps 1024
//	loadgen -via-router http://127.0.0.1:9090
//
// Join mode routes over externally started nodes instead (e.g. one
// pricesrvd per machine):
//
//	pricesrvd -addr :8081 & pricesrvd -addr :8082 &
//	pricefleet -addr :9090 -join http://127.0.0.1:8081,http://127.0.0.1:8082
//
// POST /v1/scenarios routes portfolio stress grids across the fleet:
// the scenario axis is sharded over the ring members by shock key,
// each node revalues its slice (exactly one computes the Greeks pass),
// and the router merges the answers in scenario order and recomputes
// the VaR/ES quantiles over the merged P&L — bit-identical to the same
// request answered by a solo node, which `loadgen -scenarios` with two
// -targets verifies end to end.
//
// The router adds fleet endpoints on top of the node API:
// GET /metrics carries the fleet roll-up (summed options/s, fleet
// joules per option, ring-ownership and per-node liveness gauges);
// POST /v1/invalidate broadcasts a cache-generation bump to every node.
// GET /debug/trace serves the fleet-merged Chrome trace: the router's
// route/forward/merge spans plus every member's host and modelled
// device spans, pulled incrementally over /debug/spans, clock-aligned
// via the heartbeat and stitched by W3C traceparent into one
// distributed trace per request. GET /debug/slo reports the router's
// multi-window burn-rate monitor, which also folds into /healthz as
// status "burning".
// In-process mode also mounts chaos controls for scripted kill tests:
// GET /fleet/nodes lists the members, POST /fleet/kill?node=N yanks
// one node's listener and connections mid-flight — the smoke test's
// power cut.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"binopt/internal/cluster"
	"binopt/internal/lattice"
	"binopt/internal/obslog"
	"binopt/internal/serve"
	"binopt/internal/slo"
	"binopt/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", ":9090", "router listen address")
		nodes       = flag.Int("nodes", 3, "in-process fleet size (ignored with -join)")
		join        = flag.String("join", "", "comma-separated base URLs of external nodes to route over instead of booting an in-process fleet")
		steps       = flag.Int("steps", 1024, "binomial tree depth (the paper evaluates at 1024)")
		cacheSize   = flag.Int("cache", 65536, "per-node LRU result cache capacity (negative disables; in-process mode)")
		vnodes      = flag.Int("vnodes", 128, "virtual nodes per member on the hash ring")
		seed        = flag.Uint64("seed", 1, "ring placement seed (same seed, same ownership)")
		hedge       = flag.Duration("hedge", 0, "hedge delay: re-send a straggling sub-batch to the ring successor after this long (0 disables)")
		maxAttempts = flag.Int("max-attempts", 3, "distinct nodes a sub-batch may be tried on before the client sees an error")
		heartbeat   = flag.Duration("heartbeat", 250*time.Millisecond, "membership health-poll interval")
		trace       = flag.Bool("trace", true, "distributed tracing: router spans, traceparent propagation to nodes, and the merged /debug/trace endpoint")
		traceBuf    = flag.Int("trace-buf", 65536, "span ring capacity (router ring; in-process nodes each get a ring of the same size)")
		sloOn       = flag.Bool("slo", true, "multi-window burn-rate SLO monitor on the router (and in-process nodes) with the /debug/slo endpoint")
		sloLatency  = flag.Duration("slo-latency", 0, "per-request latency threshold for the SLO latency objective (0 = default 250ms)")
		logLevel    = flag.String("log-level", "info", "structured log level: debug, info, warn, error, or off")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	)
	flag.Parse()

	cfg := fleetConfig{
		addr: *addr, nodes: *nodes, join: *join, steps: *steps,
		cacheSize: *cacheSize, vnodes: *vnodes, seed: *seed,
		hedge: *hedge, maxAttempts: *maxAttempts, heartbeat: *heartbeat,
		trace: *trace, traceBuf: *traceBuf, drain: *drain,
		sloOn: *sloOn, sloLatency: *sloLatency, logLevel: *logLevel,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pricefleet:", err)
		os.Exit(1)
	}
}

type fleetConfig struct {
	addr        string
	nodes       int
	join        string
	steps       int
	cacheSize   int
	vnodes      int
	seed        uint64
	hedge       time.Duration
	maxAttempts int
	heartbeat   time.Duration
	trace       bool
	traceBuf    int
	sloOn       bool
	sloLatency  time.Duration
	logLevel    string
	drain       time.Duration
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

// buildMembers resolves the membership: external URLs under -join, or a
// freshly booted in-process fleet otherwise (returned for chaos control
// and shutdown; nil in join mode). sloOpts and nodeLog ride into each
// in-process node's serve config; the Tracer passed there is a capacity
// template — LocalFleet gives every node its own fresh span ring, which
// is what lets the router's trace aggregator pull per-node cursors.
func buildMembers(cfg fleetConfig, sloOpts *slo.Options, nodeLog *slog.Logger) ([]cluster.Node, *cluster.LocalFleet, error) {
	if cfg.join != "" {
		var members []cluster.Node
		for i, raw := range strings.Split(cfg.join, ",") {
			u := strings.TrimSpace(raw)
			if u == "" {
				continue
			}
			members = append(members, cluster.Node{Name: fmt.Sprintf("node-%d", i), BaseURL: u})
		}
		if len(members) == 0 {
			return nil, nil, fmt.Errorf("-join lists no usable URLs")
		}
		return members, nil, nil
	}
	var nodeTracer *telemetry.Tracer
	if cfg.trace {
		nodeTracer = telemetry.New(cfg.traceBuf)
	}
	fleet, err := cluster.NewLocalFleet(cfg.nodes, serve.Config{
		Steps:     cfg.steps,
		CacheSize: cfg.cacheSize,
		Tracer:    nodeTracer,
		SLO:       sloOpts,
		Logger:    nodeLog,
	})
	if err != nil {
		return nil, nil, err
	}
	return fleet.Nodes(), fleet, nil
}

// fleetHandler mounts the router API plus, when an in-process fleet is
// attached, the chaos controls the smoke script drives.
func fleetHandler(rt *cluster.Router, fleet *cluster.LocalFleet) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", rt.Handler())
	mux.HandleFunc("/fleet/nodes", func(w http.ResponseWriter, r *http.Request) {
		type row struct {
			Name    string `json:"name"`
			BaseURL string `json:"base_url"`
			Killed  bool   `json:"killed,omitempty"`
		}
		var out []row
		if fleet != nil {
			for i, n := range fleet.Nodes() {
				out = append(out, row{Name: n.Name, BaseURL: n.BaseURL, Killed: fleet.Killed(i)})
			}
		} else {
			for _, n := range rt.Ring().Nodes() {
				out = append(out, row{Name: n})
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/fleet/kill", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if fleet == nil {
			http.Error(w, "kill is only available for in-process fleets", http.StatusBadRequest)
			return
		}
		i, err := strconv.Atoi(r.URL.Query().Get("node"))
		if err != nil || i < 0 || i >= fleet.Len() {
			http.Error(w, fmt.Sprintf("node must be 0..%d", fleet.Len()-1), http.StatusBadRequest)
			return
		}
		fleet.Kill(i)
		log.Printf("pricefleet: chaos: node %d killed (listener and connections torn down)", i)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"killed": i})
	})
	return mux
}

func run(cfg fleetConfig) error {
	level, logOn, err := parseLogLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	var routerLog, nodeLog *slog.Logger
	if logOn {
		routerLog = obslog.New(os.Stderr, "router", level)
		nodeLog = obslog.New(os.Stderr, "serve", level)
	}
	var sloOpts *slo.Options
	if cfg.sloOn {
		sloOpts = &slo.Options{LatencyThreshold: cfg.sloLatency}
	}

	members, fleet, err := buildMembers(cfg, sloOpts, nodeLog)
	if err != nil {
		return err
	}

	var tracer *telemetry.Tracer
	if cfg.trace {
		tracer = telemetry.New(cfg.traceBuf)
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Nodes:       members,
		Steps:       cfg.steps,
		VNodes:      cfg.vnodes,
		Seed:        cfg.seed,
		Hedge:       cfg.hedge,
		MaxAttempts: cfg.maxAttempts,
		Heartbeat:   cfg.heartbeat,
		Tracer:      tracer,
		SLO:         sloOpts,
		Logger:      routerLog,
	})
	if err != nil {
		if fleet != nil {
			fleet.Close(context.Background())
		}
		return err
	}

	httpSrv := &http.Server{Addr: cfg.addr, Handler: fleetHandler(rt, fleet)}
	errc := make(chan error, 1)
	go func() {
		mode := "join"
		if fleet != nil {
			mode = "in-process"
		}
		log.Printf("pricefleet: routing %d nodes (%s) on %s (steps=%d, vnodes=%d, seed=%d, hedge=%s, heartbeat=%s, quad-kernel=%s)",
			len(members), mode, cfg.addr, cfg.steps, cfg.vnodes, cfg.seed, cfg.hedge, cfg.heartbeat, lattice.QuadKernel())
		for _, n := range members {
			log.Printf("pricefleet: member %s at %s", n.Name, n.BaseURL)
		}
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("pricefleet: draining (budget %s)", cfg.drain)
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	rt.Close()
	if fleet != nil {
		if err := fleet.Close(dctx); err != nil {
			return err
		}
	}
	log.Printf("pricefleet: drained cleanly")
	return <-errc
}
