package main

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"binopt/internal/option"
	"binopt/internal/serve"
)

// closedLoop runs clients that each send their next request as soon as
// the previous answer arrives, for d of load in segments of segLen with
// a host probe before each and after the last (see probe.go); requests
// in flight at a segment's end complete and count. send builds, sends
// and checks request seq (0, 1, 2, ... across all clients).
//
// The heap peak is taken until answered requests have delivered
// heapWork units, not over the whole window: the program caches what it
// prices, so over a fixed time a faster host would read as a bigger
// heap.
func closedLoop(clients int, d time.Duration, heapWork int, send func(seq int) *request) *window {
	var next, delivered atomic.Int64
	var mu sync.Mutex
	w := &window{}
	heap := startHeapSampler()
	speed := probeSpeed()
	for left := d; left > 0; left -= segLen {
		seg := min(left, segLen)
		var reqs []*request
		start := time.Now()
		deadline := start.Add(seg)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					r := send(int(next.Add(1) - 1))
					if r.ok() && delivered.Add(int64(r.units)) >= int64(heapWork) {
						heap.freeze()
					}
					mu.Lock()
					reqs = append(reqs, r)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		after := probeSpeed()
		f := (speed + after) / 2 / probeRef
		for _, r := range reqs {
			r.hostScale = f
		}
		w.elapsed += elapsed
		w.refElapsed += time.Duration(float64(elapsed) * f)
		w.reqs = append(w.reqs, reqs...)
		w.probes = append(w.probes, speed)
		speed = after
	}
	w.probes = append(w.probes, speed)
	w.heapMB = heap.peakMB()
	return w
}

// priceCheck is one served price awaiting comparison with the oracle.
type priceCheck struct {
	req *request
	opt option.Option
	got float64
}

// checkPrices prices every checked contract on the scalar oracle and
// marks each request whose answer differs in any bit as wrong.
func checkPrices(checks []priceCheck) error {
	want, err := oracle(checkedOpts(checks))
	if err != nil {
		return err
	}
	for i, c := range checks {
		if !sameBits(c.got, want[i]) {
			c.req.wrong = true
		}
	}
	return nil
}

// pricer posts contracts to /v1/price and reads the answer into a
// request record.
type pricer struct {
	client *http.Client
	url    string
	rec    *recorder
}

func (p pricer) price(opts []option.Option, r *request) []serve.Result {
	wire := make([]serve.Contract, len(opts))
	for i, o := range opts {
		wire[i] = serve.FromOption(o)
	}
	body, err := json.Marshal(serve.PriceRequest{Contracts: wire})
	if err != nil {
		r.err = err
		return nil
	}
	var resp serve.PriceResponse
	hdr, err := postJSON(p.client, p.rec, p.url, body, &resp)
	if err != nil {
		r.err = err
		return nil
	}
	if len(resp.Results) != len(opts) {
		r.wrong = true
		return nil
	}
	r.timing = hdr.Get("Server-Timing")
	r.units = len(opts)
	for _, res := range resp.Results {
		r.joules += res.ModelledJoules
		if res.Cached {
			r.cached++
		}
	}
	return resp.Results
}

// newClient is an HTTP client holding at most conns connections to the
// server under test.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// handlerWrap is the server-side middleware of a run: a "handler" span
// around every request while the recorder is on, nothing otherwise.
func handlerWrap(cfg runConfig, name string) func(http.Handler) http.Handler {
	if !cfg.trace {
		return func(h http.Handler) http.Handler { return h }
	}
	return func(h http.Handler) http.Handler { return cfg.rec.wrap(name, h) }
}

// tracedWindow runs drive with the recorder on, between snapshots of
// the serving nodes' /metrics and /healthz.
func tracedWindow(cfg runConfig, client *http.Client, nodes []string, drive func() (*window, error)) (*window, []nodeSnapshot, []nodeSnapshot, error) {
	snap := func() ([]nodeSnapshot, error) {
		var out []nodeSnapshot
		for _, base := range nodes {
			s, err := snapshotNode(client, base)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	before, err := snap()
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.rec.on.Store(true)
	w, err := drive()
	cfg.rec.on.Store(false)
	if err != nil {
		return nil, nil, nil, err
	}
	after, err := snap()
	if err != nil {
		return nil, nil, nil, err
	}
	return w, before, after, nil
}
