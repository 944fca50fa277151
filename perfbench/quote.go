package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"binopt/internal/option"
	"binopt/internal/serve"
	"binopt/internal/workload"
)

// quote_stream is a ticking quote feed: an open-loop Poisson stream of
// small requests drawn Zipf-skewed from a fixed contract universe, with
// a periodic market-data tick (POST /v1/invalidate) flushing the cache,
// against a server configured as pricesrvd ships (tracer and SLO
// monitor on). HTTP, cache, admission, batcher, delivery and telemetry
// do most of the work; after each tick the per-job scalar path the
// tracer forces re-prices the hot set.
//
// The rate, universe and tick period are sized so the post-tick refill
// drains within about a second, far inside the tick period, and about
// nine in ten contracts come from the cache. With a shorter period or a
// higher rate the refill backlog reaches the next tick whenever the
// host slows, and the stream tips into a standing queue.
//
// The workload is not in BENCHMARK.json: on a shared 2-vCPU host its
// tail latency is set by host stalls of a few hundred milliseconds and
// does not repeat from run to run (see README.md).
const (
	qsUniverse = 400
	// qsZipfS and qsZipfV skew draws as P(k) ∝ (qsZipfV+k)^-qsZipfS: the
	// hottest contract is about 28 times as likely as the coldest, so
	// the whole universe is touched soon after each tick and the refill
	// is one burst rather than a trickle over the tick period.
	qsZipfS  = 1.1
	qsZipfV  = 20
	qsMaxReq = 8
	qsRate   = 100.0 // requests per second offered
	qsTick   = 10 * time.Second
	qsConns  = 2
	// qsMaxInFlight bounds the generator's outstanding requests; a
	// stalled server makes the generator late, which voids the run.
	qsMaxInFlight = 512
	// qsLimit is the latency objective: the SLO monitor's default.
	qsLimit = 250 * time.Millisecond
	// qsMaxLate is the 99th-percentile send lateness beyond which the
	// generator is judged to have fallen behind its schedule: a fifth of
	// the latency objective. While the refill saturates every core the
	// generator's timer wake-ups run 10-20 ms late; that is scheduling
	// jitter, not a backlog.
	qsMaxLate = qsLimit / 5
)

// qsEvent is one scheduled send: a price request for universe indices
// idx, or a market-data tick.
type qsEvent struct {
	at   time.Duration
	tick bool
	idx  []int
}

// qsUniverseFor is the contract universe of a seed.
func qsUniverseFor(seed int64) ([]option.Option, error) {
	return workload.MixedBatch(seed, qsUniverse)
}

// qsSchedule lays out a window of length d: Poisson arrivals at qsRate,
// each of 1..qsMaxReq distinct contracts drawn Zipf-skewed (index 0
// hottest), and a tick at every multiple of qsTick from 0.
func qsSchedule(seed int64, d time.Duration) []qsEvent {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, qsZipfS, qsZipfV, qsUniverse-1)
	var ev []qsEvent
	for k := 0; time.Duration(k)*qsTick < d; k++ {
		ev = append(ev, qsEvent{at: time.Duration(k) * qsTick, tick: true})
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() / qsRate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			break
		}
		n := 1 + rng.Intn(qsMaxReq)
		seen := make(map[int]bool, n)
		idx := make([]int, 0, n)
		for len(idx) < n {
			i := int(zipf.Uint64())
			if !seen[i] {
				seen[i] = true
				idx = append(idx, i)
			}
		}
		ev = append(ev, qsEvent{at: at, idx: idx})
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].at < ev[j].at })
	return ev
}

// openLoop sends every event at its due time, whatever the server is
// doing, and times each request from when it was due. Lateness is how
// long after its due time each send actually went out.
func openLoop(sched []qsEvent, send func(e qsEvent, due time.Time) *request, tick func() error) (*window, error) {
	var (
		mu      sync.Mutex
		reqs    []*request
		tickErr error
		late    []time.Duration
		wg      sync.WaitGroup
	)
	sem := make(chan struct{}, qsMaxInFlight)
	heap := startHeapSampler()
	start := time.Now().Add(5 * time.Millisecond)
	for _, e := range sched {
		due := start.Add(e.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		late = append(late, time.Since(due))
		wg.Add(1)
		go func(e qsEvent) {
			defer wg.Done()
			defer func() { <-sem }()
			if e.tick {
				if err := tick(); err != nil {
					mu.Lock()
					tickErr = err
					mu.Unlock()
				}
				return
			}
			r := send(e, due)
			mu.Lock()
			reqs = append(reqs, r)
			mu.Unlock()
		}(e)
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start), reqs: reqs, heapMB: heap.peakMB(), late: late}
	if tickErr != nil {
		return nil, tickErr
	}
	if p99 := quantile(late, 0.99); p99 > qsMaxLate {
		return nil, fmt.Errorf("run invalid: the generator fell behind its schedule (99th-percentile send lateness %.1f ms > %.0f ms), latencies not reported", ms(p99), ms(qsMaxLate))
	}
	return w, nil
}

func runQuoteStream(cfg runConfig) (*runResult, error) {
	s, setup, err := timedSetup(setups,
		func() (*solo, error) { return startSolo(pricesrvdConfig(), handlerWrap(cfg, "handler")) },
		(*solo).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	universe, err := qsUniverseFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	want, err := oracle(universe)
	if err != nil {
		return nil, err
	}
	sched := qsSchedule(cfg.seed, cfg.window)
	requests := 0
	for _, e := range sched {
		if !e.tick {
			requests++
		}
	}
	client := newClient(qsConns)
	p := pricer{client: client, url: s.l.base + "/v1/price", rec: cfg.rec}

	send := func(e qsEvent, due time.Time) *request {
		r := &request{}
		opts := make([]option.Option, len(e.idx))
		for i, k := range e.idx {
			opts[i] = universe[k]
		}
		results := p.price(opts, r)
		r.lat = time.Since(due)
		for i, res := range results {
			if !sameBits(res.Price, want[e.idx[i]]) {
				r.wrong = true
			}
		}
		return r
	}
	var gen uint64
	tick := func() error {
		gen++
		body, err := json.Marshal(serve.InvalidateRequest{Generation: gen, Origin: "perfbench"})
		if err != nil {
			return err
		}
		resp, err := client.Post(s.l.base+"/v1/invalidate", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("tick %d: %w", gen, err)
		}
		defer resp.Body.Close()
		var out serve.InvalidateResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || !out.Applied {
			return fmt.Errorf("tick %d not applied (HTTP %d, %+v, %v)", gen, resp.StatusCode, out, err)
		}
		return nil
	}
	drive := func() (*window, error) { return openLoop(sched, send, tick) }

	res := &runResult{setup: setup, details: map[string]any{
		"universe": qsUniverse, "zipf_s": qsZipfS, "zipf_v": qsZipfV, "max_contracts": qsMaxReq,
		"offered_rps": qsRate, "tick_s": qsTick.Seconds(), "connections": qsConns,
		"scheduled_requests": requests,
	}}
	a, err := drive()
	if err != nil {
		return nil, err
	}
	res.windows = append(res.windows, a)
	res.untraced = a.summarize(qsLimit)
	res.details["late_p99_ms"] = ms(quantile(a.late, 0.99))
	if !cfg.trace {
		return res, nil
	}

	b, before, after, err := tracedWindow(cfg, client, []string{s.l.base}, drive)
	if err != nil {
		return nil, err
	}
	res.windows = append(res.windows, b)
	tb := b.summarize(qsLimit)
	res.traced = &tb
	in := layerInputs{w: b, untraced: res.untraced, traced: tb, spans: cfg.rec.snapshot()}
	in.d, in.priced, _ = snapshotDelta(before, after, "")
	in.kernelQuad = in.d["binopt_batch_priced_options_total"]
	in.kernelScalar = in.d["binopt_options_priced_total"] - in.kernelQuad
	if in.replayQuad, in.replayScalar, err = kernelReplay(cfg.rec, replaySample(cfg.seed, universe)); err != nil {
		return nil, err
	}
	res.perLayer = perLayer(in)
	return res, nil
}
