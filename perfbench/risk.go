package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"binopt/internal/lattice"
	"binopt/internal/option"
	"binopt/internal/scenario"
	"binopt/internal/serve"
	"binopt/internal/workload"
)

// risk_fleet revalues a seeded 16-position mixed book under a fresh
// 8x4x2 shock grid per request (so the scenario cache never hits)
// through a cluster.Router over a 2-node LocalFleet with pricefleet
// defaults, from one closed-loop client. It exercises the Greeks batch
// sweep, scenario-major chunks and the scenario semaphore instead of
// the batcher, and is the only workload crossing the cluster layer.
const (
	rfPositions = 16
	rfClients   = 1
	rfScenarios = 8 * 4 * 2
	// rfLimit is the latency objective of one revaluation.
	rfLimit = 3 * time.Second
	// rfHeapWork is the contract evaluations delivered over which the
	// heap peak is taken: 13-18 s into a window on a shared 2-vCPU Xeon.
	rfHeapWork = 20000
)

func rfBook(seed int64) ([]serve.ScenarioPosition, error) {
	opts, err := workload.MixedBatch(seed, rfPositions)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	book := make([]serve.ScenarioPosition, len(opts))
	for i, o := range opts {
		q := float64(1 + rng.Intn(10))
		if rng.Intn(2) == 0 {
			q = -q
		}
		book[i] = serve.ScenarioPosition{Contract: serve.FromOption(o), Quantity: q}
	}
	return book, nil
}

// rfGrid is request seq's shock grid: the same spot x vol x rate shape
// every time, its spot axis shifted by seq so no two requests share a
// scenario key.
func rfGrid(seed int64, seq int) *scenario.GridSpec {
	jitter := 1e-3 * rand.New(rand.NewSource(seed*31+int64(seq))).Float64()
	off := 1e-4*float64(seq) + jitter
	return &scenario.GridSpec{
		Spot: scenario.Axis{From: 0.8 + off, To: 1.2 + off, N: 8},
		Vol:  scenario.Axis{From: 0.8, To: 1.25, N: 4},
		Rate: scenario.Axis{From: -0.01, To: 0.01, N: 2},
	}
}

// rfComparable is the part of a revaluation that must match a solo
// engine bit for bit. JSON encodes every float64 in its shortest exact
// form, so equal encodings mean equal bits. Evaluations is left out: it
// counts work, and every fleet shard prices the base book once more.
type rfComparable struct {
	BaseValue float64
	Greeks    lattice.Greeks
	HasGreeks bool
	Scenarios []scenario.ScenarioValue
	Risk      []scenario.RiskMeasure
}

// checkSolo revalues req on a fresh scenario.Engine over the reference
// lattice and compares it with the fleet's answer.
func checkSolo(req serve.ScenarioRequest, got serve.ScenarioResponse) (bool, error) {
	book, shocks, quantiles, err := req.Resolve()
	if err != nil {
		return false, err
	}
	ref, err := lattice.NewEngine(steps)
	if err != nil {
		return false, err
	}
	rep, err := scenario.New(ref, 0).Revalue(scenario.Request{Book: book, Shocks: shocks, Quantiles: quantiles})
	if err != nil {
		return false, err
	}
	want := rfComparable{rep.BaseValue, rep.Greeks, rep.HasGreeks, rep.Scenarios, rep.Risk}
	have := rfComparable{BaseValue: got.BaseValue, HasGreeks: got.HasGreeks, Scenarios: got.Scenarios, Risk: got.Risk}
	if g := got.Greeks; g != nil {
		have.Greeks = lattice.Greeks{Delta: g.Delta, Gamma: g.Gamma, Theta: g.Theta, Vega: g.Vega, Rho: g.Rho}
	}
	a, err := json.Marshal(want)
	if err != nil {
		return false, err
	}
	b, err := json.Marshal(have)
	if err != nil {
		return false, err
	}
	return bytes.Equal(a, b), nil
}

func runRiskFleet(cfg runConfig) (*runResult, error) {
	var transport http.RoundTripper
	if cfg.trace {
		// Same pool shape the router gives each member by default.
		transport = &forwardTransport{rec: cfg.rec, base: &http.Transport{
			MaxIdleConns: 64, MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second,
		}}
	}
	f, setup, err := timedSetup(setups,
		func() (*fleet, error) { return startFleet(transport, handlerWrap(cfg, "router")) },
		(*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()

	book, err := rfBook(cfg.seed)
	if err != nil {
		return nil, err
	}
	client := newClient(rfClients)
	url := f.l.base + "/v1/scenarios"

	type answered struct {
		req  serve.ScenarioRequest
		resp serve.ScenarioResponse
		r    *request
	}
	var mu sync.Mutex
	var toCheck []answered
	seqBase := 0
	drive := func() (*window, error) {
		base := seqBase
		w := closedLoop(rfClients, cfg.window, rfHeapWork, func(seq int) *request {
			seq += base
			r := &request{}
			req := serve.ScenarioRequest{Portfolio: book, Grid: rfGrid(cfg.seed, seq)}
			body, err := json.Marshal(req)
			if err != nil {
				r.err = err
				return r
			}
			var resp serve.ScenarioResponse
			t0 := time.Now()
			_, err = postJSON(client, cfg.rec, url, body, &resp)
			r.lat = time.Since(t0)
			if err != nil {
				r.err = err
				return r
			}
			r.units = int(resp.Evaluations)
			r.joules = resp.ModelledJoules
			if len(resp.Scenarios) != rfScenarios || !resp.HasGreeks || resp.Cached {
				r.wrong = true
			}
			if seq == base {
				mu.Lock()
				toCheck = append(toCheck, answered{req, resp, r})
				mu.Unlock()
			}
			return r
		})
		seqBase += len(w.reqs)
		return w, nil
	}

	res := &runResult{setup: setup, details: map[string]any{
		"nodes": fleetNodes, "positions": rfPositions, "grid": "8x4x2",
		"clients": rfClients,
	}}
	a, _ := drive()
	res.windows = append(res.windows, a)
	var in layerInputs
	if cfg.trace {
		var nodes []string
		for i := 0; i < f.nodes.Len(); i++ {
			nodes = append(nodes, f.nodes.URL(i))
		}
		b, before, after, err := tracedWindow(cfg, client, nodes, drive)
		if err != nil {
			return nil, err
		}
		res.windows = append(res.windows, b)
		in.w = b
		in.d, in.priced, in.nodeEvals = snapshotDelta(before, after, "binopt_scenario_evaluations_total")
	}
	for _, c := range toCheck {
		ok, err := checkSolo(c.req, c.resp)
		if err != nil {
			return nil, fmt.Errorf("solo revaluation: %w", err)
		}
		if !ok {
			c.r.wrong = true
		}
	}
	res.details["solo_checked_requests"] = len(toCheck)
	res.untraced = a.summarize(rfLimit)
	if !cfg.trace {
		return res, nil
	}

	tb := in.w.summarize(rfLimit)
	res.traced = &tb
	in.untraced, in.traced, in.spans = res.untraced, tb, cfg.rec.snapshot()
	for _, v := range in.priced {
		in.kernelQuad += v
	}
	var shocked []option.Option
	if len(toCheck) > 0 {
		bk, shocks, _, err := toCheck[0].req.Resolve()
		if err != nil {
			return nil, err
		}
		for _, sh := range shocks {
			for _, pos := range bk {
				shocked = append(shocked, sh.Apply(pos.Option))
			}
		}
	}
	if in.replayQuad, in.replayScalar, err = kernelReplay(cfg.rec, replaySample(cfg.seed, shocked)); err != nil {
		return nil, err
	}
	res.perLayer = perLayer(in)
	return res, nil
}
