package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"binopt/internal/accel"
	"binopt/internal/cluster"
	"binopt/internal/lattice"
	"binopt/internal/obslog"
	"binopt/internal/option"
	"binopt/internal/serve"
	"binopt/internal/slo"
	"binopt/internal/telemetry"
)

const (
	// steps is the lattice depth everything is priced at: the paper's
	// evaluation depth and the serving default.
	steps = 1024
	// setups is how many times a run builds its server or fleet; set-up
	// time is their median, and the last one serves the run.
	setups = 5
	// traceRing is the span ring pricesrvd and pricefleet ship with.
	traceRing = 65536
)

// listener serves h on a kernel-assigned loopback port.
type listener struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return l, nil
}

func (l *listener) close(ctx context.Context) {
	l.hs.Shutdown(ctx)
	<-l.done
}

// waitReady polls GET url until it answers 200 and ok accepts the body.
func waitReady(client *http.Client, url string, ok func([]byte) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s (last error %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// solo is one pricing server on loopback, built the way pricesrvd
// builds it.
type solo struct {
	srv *serve.Server
	l   *listener
}

// pricesrvdConfig is serve.Config as pricesrvd ships it with no flags:
// tracer on with a 65536-span ring, SLO monitor on at its 250 ms
// default, info-level structured logs.
func pricesrvdConfig() serve.Config {
	return serve.Config{
		Steps:         steps,
		MaxBatch:      64,
		FlushInterval: 2 * time.Millisecond,
		QueueDepth:    8192,
		CacheSize:     65536,
		MaxAttempts:   3,
		Tracer:        telemetry.New(traceRing),
		SLO:           &slo.Options{},
		Logger:        obslog.New(os.Stderr, "serve", slog.LevelInfo),
	}
}

// startSolo builds backends and server, starts serving, and returns
// once /healthz answers: construction to first-ready is the set-up
// time.
func startSolo(cfg serve.Config, wrap func(http.Handler) http.Handler) (*solo, error) {
	cfg.Steps = steps
	backends, err := serve.DefaultBackends(steps)
	if err != nil {
		return nil, err
	}
	cfg.Backends = backends
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	l, err := listen(wrap(srv.Handler()))
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	s := &solo{srv: srv, l: l}
	if err := waitReady(http.DefaultClient, l.base+"/healthz", nil); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *solo) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.l.close(ctx)
	s.srv.Close(ctx)
}

// fleet is a LocalFleet behind a cluster.Router on loopback, built the
// way pricefleet builds it with default flags.
type fleet struct {
	nodes *cluster.LocalFleet
	rt    *cluster.Router
	l     *listener
}

const fleetNodes = 2

// startFleet boots the nodes and the router and returns once the
// router's /healthz reports every node up. transport, when non-nil, is
// injected as the router's member transport.
func startFleet(transport http.RoundTripper, wrap func(http.Handler) http.Handler) (*fleet, error) {
	sloOpts := &slo.Options{}
	nodes, err := cluster.NewLocalFleet(fleetNodes, serve.Config{
		Steps:     steps,
		CacheSize: 65536,
		Tracer:    telemetry.New(traceRing),
		SLO:       sloOpts,
		Logger:    obslog.New(os.Stderr, "serve", slog.LevelInfo),
	})
	if err != nil {
		return nil, err
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Nodes:       nodes.Nodes(),
		Steps:       steps,
		VNodes:      128,
		Seed:        1,
		MaxAttempts: 3,
		Heartbeat:   250 * time.Millisecond,
		Tracer:      telemetry.New(traceRing),
		SLO:         sloOpts,
		Logger:      obslog.New(os.Stderr, "router", slog.LevelInfo),
		Transport:   transport,
	})
	if err != nil {
		nodes.Close(context.Background())
		return nil, err
	}
	l, err := listen(wrap(rt.Handler()))
	if err != nil {
		rt.Close()
		nodes.Close(context.Background())
		return nil, err
	}
	f := &fleet{nodes: nodes, rt: rt, l: l}
	allUp := func(body []byte) bool {
		var h struct {
			NodesUp int `json:"nodes_up"`
		}
		return json.Unmarshal(body, &h) == nil && h.NodesUp == fleetNodes
	}
	if err := waitReady(http.DefaultClient, l.base+"/healthz", allUp); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f.l.close(ctx)
	f.rt.Close()
	f.nodes.Close(ctx)
}

// setupTime is the median construction-to-ready time of a run's
// set-ups, on the reference host (see probe.go) and as timed.
type setupTime struct {
	Ref float64 `json:"setup_s"`
	Raw float64 `json:"raw_setup_s"`
}

// timedSetup builds the system n times, closing all but the last, with a
// host probe before each build and after the last, and returns the last
// with the median construction-to-ready time.
func timedSetup[T any](n int, build func() (T, error), closeFn func(T)) (T, setupTime, error) {
	var last T
	var ref, raw []float64
	speed := probeSpeed()
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, setupTime{}, err
		}
		took := time.Since(t0).Seconds()
		last = v
		after := probeSpeed()
		raw = append(raw, took)
		ref = append(ref, took*(speed+after)/2/probeRef)
		speed = after
	}
	return last, setupTime{Ref: medianFloat(ref), Raw: medianFloat(raw)}, nil
}

// heapSampler tracks the peak Go heap (live and not yet swept objects)
// while a window runs, or until freeze. It reads runtime/metrics, which
// does not stop the world.
type heapSampler struct {
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	peak   uint64
	frozen bool
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			h.read()
			select {
			case <-h.stop:
				h.read()
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	h.mu.Lock()
	defer h.mu.Unlock()
	if v := sample[0].Value.Uint64(); !h.frozen && v > h.peak {
		h.peak = v
	}
}

// freeze takes a last sample and keeps the peak from then on.
func (h *heapSampler) freeze() {
	h.read()
	h.mu.Lock()
	h.frozen = true
	h.mu.Unlock()
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// oracle prices every contract on the scalar reference lattice, the
// bit-exact reference every served price is checked against. It runs
// outside timed windows, on GOMAXPROCS goroutines.
func oracle(opts []option.Option) ([]float64, error) {
	eng, err := lattice.NewEngine(steps)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(opts))
	errs := make([]error, len(opts))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(opts); i += workers {
				out[i], errs[i] = eng.Price(opts[i])
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// replaySize is how many of a run's contracts the kernel replay prices
// per pass: a multiple of four, so the quad path runs only full groups.
const (
	replaySize   = 96
	replayPasses = 3
)

// kernelReplay re-prices a sample of the run's contracts on one core,
// through accel.Engine.PriceBatch(opts, 1) (the quad-interleaved path
// batches take) and per contract through lattice.Engine.Price (the
// scalar path traced singletons take), and checks the two agree bit for
// bit. After a warm-up pass of each, it times replayPasses passes and
// returns the median options per core-second of each path.
func kernelReplay(rec *recorder, sample []option.Option) (quad, scalar float64, err error) {
	if len(sample) == 0 {
		return 0, 0, errors.New("replay: the run answered no request to replay")
	}
	p, err := accel.Get(accel.Names()[0])
	if err != nil {
		return 0, 0, err
	}
	eng, err := p.NewEngine(steps)
	if err != nil {
		return 0, 0, err
	}
	ref, err := lattice.NewEngine(steps)
	if err != nil {
		return 0, 0, err
	}
	var batch, single []float64
	quadPass := func() error {
		batch, err = eng.PriceBatch(sample, 1)
		return err
	}
	scalarPass := func() error {
		single = make([]float64, len(sample))
		for i, o := range sample {
			if single[i], err = ref.Price(o); err != nil {
				return err
			}
		}
		return nil
	}
	timed := func(name string, pass func() error) (float64, error) {
		if err := pass(); err != nil { // warm-up
			return 0, err
		}
		var rates []float64
		for i := 0; i < replayPasses; i++ {
			s := span{ID: rec.newID(), Trace: "replay", Name: name, Start: time.Now()}
			if err := pass(); err != nil {
				return 0, err
			}
			s.End = time.Now()
			rec.add(s)
			rates = append(rates, float64(len(sample))/s.dur().Seconds())
		}
		return medianFloat(rates), nil
	}
	if quad, err = timed("replay.quad", quadPass); err != nil {
		return 0, 0, err
	}
	if scalar, err = timed("replay.scalar", scalarPass); err != nil {
		return 0, 0, err
	}
	for i := range sample {
		if !sameBits(batch[i], single[i]) {
			return 0, 0, fmt.Errorf("replay: contract %d: quad %v != scalar %v", i, batch[i], single[i])
		}
	}
	return quad, scalar, nil
}

// postJSON posts body to url, inside a client span while rec is on,
// and decodes a 200 answer into out. A non-200 answer is returned as an
// httpStatusError.
func postJSON(client *http.Client, rec *recorder, url string, body []byte, out any) (http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	traced := rec.enabled()
	var cs span
	if traced {
		cs = rec.beginClient(req)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.Header, httpStatusError(resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.Header, fmt.Errorf("decoding answer: %w", err)
	}
	if traced {
		cs.End = time.Now()
		rec.add(cs)
	}
	return resp.Header, nil
}

type httpStatusError int

func (e httpStatusError) Error() string { return fmt.Sprintf("HTTP %d", int(e)) }
