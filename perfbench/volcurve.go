package main

import (
	"math/rand"
	"sync"
	"time"

	"binopt/internal/option"
	"binopt/internal/serve"
	"binopt/internal/workload"
)

// volcurve_cold is the paper's use case: fresh 2000-put American chains
// at 1024 steps, each on its own spot so nothing hits the cache, sent
// as 250-contract requests by a closed loop of two clients to a solo
// server at serve.Config defaults (program tracer off). Lattice and
// accel do almost all the work.
const (
	volChain   = 2000
	volChunk   = 250
	volClients = 2
	// volChecks is how many contracts of each answer are checked
	// against the scalar oracle (a seeded sample; the scalar oracle is
	// too slow to re-price every contract of a run).
	volChecks = 2
	// volLimit is the latency objective of one 250-contract request:
	// a whole 2000-put curve within 8 s per client.
	volLimit = time.Second
	// volHeapWork is the contracts delivered over which the heap peak
	// is taken: 12-20 s into a window on a shared 2-vCPU Xeon.
	volHeapWork = 20000
)

// volChunkAt returns request seq's contracts: chunk seq%8 of chain
// seq/8. Chain c is the default volatility-curve chain on a spot drawn
// from the seed and shifted by c, so no two chains share a contract.
func volChunkAt(seed int64, seq int) ([]option.Option, error) {
	c := seq / (volChain / volChunk)
	chainSeed := seed*1_000_003 + int64(c)
	spec := workload.DefaultVolCurveSpec(chainSeed)
	spec.Spot = 90 + 20*rand.New(rand.NewSource(chainSeed)).Float64() + 0.001*float64(c)
	chain, err := workload.Chain(spec)
	if err != nil {
		return nil, err
	}
	k := seq % (volChain / volChunk)
	return chain[k*volChunk : (k+1)*volChunk], nil
}

// volSample picks the seeded contract indices of request seq to check.
func volSample(seed int64, seq int) []int {
	return rand.New(rand.NewSource(seed ^ int64(seq)*7919)).Perm(volChunk)[:volChecks]
}

func runVolcurve(cfg runConfig) (*runResult, error) {
	s, setup, err := timedSetup(setups,
		func() (*solo, error) { return startSolo(serve.Config{}, handlerWrap(cfg, "handler")) },
		(*solo).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	client := newClient(volClients)
	p := pricer{client: client, url: s.l.base + "/v1/price", rec: cfg.rec}

	var mu sync.Mutex
	var checks []priceCheck
	seqBase := 0
	drive := func() (*window, error) {
		base := seqBase
		w := closedLoop(volClients, cfg.window, volHeapWork, func(seq int) *request {
			seq += base
			r := &request{}
			opts, err := volChunkAt(cfg.seed, seq)
			if err != nil {
				r.err = err
				return r
			}
			t0 := time.Now()
			results := p.price(opts, r)
			r.lat = time.Since(t0)
			if results == nil {
				return r
			}
			mu.Lock()
			defer mu.Unlock()
			for _, i := range volSample(cfg.seed, seq) {
				checks = append(checks, priceCheck{req: r, opt: opts[i], got: results[i].Price})
			}
			return r
		})
		seqBase += len(w.reqs)
		return w, nil
	}

	res := &runResult{setup: setup, details: map[string]any{
		"clients": volClients, "chain": volChain, "request_contracts": volChunk,
		"checked_per_request": volChecks,
	}}
	a, _ := drive()
	res.windows = append(res.windows, a)
	var in layerInputs
	if cfg.trace {
		b, before, after, err := tracedWindow(cfg, client, []string{s.l.base}, drive)
		if err != nil {
			return nil, err
		}
		res.windows = append(res.windows, b)
		in.w = b
		in.d, in.priced, _ = snapshotDelta(before, after, "")
	}
	if err := checkPrices(checks); err != nil {
		return nil, err
	}
	res.details["checked_contracts"] = len(checks)
	res.untraced = a.summarize(volLimit)
	if !cfg.trace {
		return res, nil
	}

	tb := in.w.summarize(volLimit)
	res.traced = &tb
	in.untraced, in.traced, in.spans = res.untraced, tb, cfg.rec.snapshot()
	in.kernelQuad = in.d["binopt_batch_priced_options_total"]
	in.kernelScalar = in.d["binopt_options_priced_total"] - in.kernelQuad
	if in.replayQuad, in.replayScalar, err = kernelReplay(cfg.rec, replaySample(cfg.seed, checkedOpts(checks))); err != nil {
		return nil, err
	}
	res.perLayer = perLayer(in)
	return res, nil
}

// replaySample draws replaySize contracts from a run's own inputs,
// seeded, with repeats if the run sent fewer.
func replaySample(seed int64, from []option.Option) []option.Option {
	if len(from) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]option.Option, replaySize)
	for i := range out {
		out[i] = from[rng.Intn(len(from))]
	}
	return out
}

func checkedOpts(checks []priceCheck) []option.Option {
	out := make([]option.Option, len(checks))
	for i, c := range checks {
		out[i] = c.opt
	}
	return out
}
