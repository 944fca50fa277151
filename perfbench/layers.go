package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"binopt/internal/accel"
)

// layerInputs is everything a traced window observed, gathered from the
// benchmark's own spans, /metrics and /healthz deltas, the kernel
// replay and the untraced window run just before it.
type layerInputs struct {
	w     *window
	spans []span
	// d is the /metrics delta over the traced window, summed over
	// every serving node.
	d counters
	// priced is the engine-booked options per backend over the window,
	// summed over nodes (scenario revaluations included).
	priced map[string]float64
	// nodeEvals is each fleet node's scenario evaluations (nil solo).
	nodeEvals []float64
	// kernelQuad and kernelScalar count the contracts the program
	// priced on the batch (quad) path and on the per-job scalar path.
	kernelQuad, kernelScalar float64
	replayQuad, replayScalar float64
	untraced, traced         summary
}

// perLayer computes every per-layer metric. A layer that does no work
// on a workload reports 0.
func perLayer(in layerInputs) metricSet {
	m := metricSet{}
	units, cached := in.w.delivered()
	answered := 0
	for _, r := range in.w.reqs {
		if r.ok() {
			answered++
		}
	}

	byName := make(map[string][]span)
	forwardsOf := make(map[string][]span)
	for _, s := range in.spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Name == "forward" {
			forwardsOf[s.Trace] = append(forwardsOf[s.Trace], s)
		}
	}
	kids := childrenByParent(in.spans)
	meanDur := func(ss []span) float64 {
		var sum time.Duration
		for _, s := range ss {
			sum += s.dur()
		}
		return ratio(ms(sum), float64(len(ss)))
	}

	// serve
	var httpSelf, routerSelf time.Duration
	nHTTP, nRouter := 0, 0
	for _, c := range byName["client"] {
		var handlers []span
		for _, k := range kids[c.ID] {
			if k.Name == "handler" {
				handlers = append(handlers, k)
			}
		}
		if len(handlers) > 0 {
			httpSelf += selfTime(c, handlers)
			nHTTP++
		}
		if fw := forwardsOf[c.Trace]; len(fw) > 0 {
			routerSelf += selfTime(c, fw)
			nRouter++
		}
	}
	m.set("serve.handler_ms", "ms", meanDur(byName["handler"]))
	m.set("serve.http_self_ms", "ms", ratio(ms(httpSelf), float64(nHTTP)))
	ph := in.w.pricePhases()
	perOpt := func(d time.Duration) float64 { return ratio(ms(d), float64(ph.Priced)) }
	m.set("serve.phase_batch_ms", "ms", perOpt(ph.Batch))
	m.set("serve.phase_queue_ms", "ms", perOpt(ph.Queue))
	m.set("serve.phase_compute_ms", "ms", perOpt(ph.Compute))
	m.set("serve.phase_readback_ms", "ms", perOpt(ph.Readback))
	m.set("serve.cache_hit_share", "ratio", ratio(float64(cached), float64(units)))
	m.set("serve.batch_path_share", "ratio", ratio(in.d["binopt_batch_priced_options_total"], in.d["binopt_options_priced_total"]))
	m.set("serve.batch_size_mean", "count", ratio(in.d["binopt_batch_size_sum"], in.d["binopt_batch_size_count"]))
	m.set("serve.invalidated_per_tick", "count", ratio(in.d["binopt_cache_invalidated_entries_total"], in.d["binopt_cache_invalidations_total"]))
	m.set("serve.rejected", "count", in.d["binopt_rejected_total"])
	m.set("serve.retries", "count", in.d["binopt_retries_total"])

	// accel
	var pricedAll float64
	for _, v := range in.priced {
		pricedAll += v
	}
	for _, name := range accel.Names() {
		m.set("accel.priced_share."+name, "ratio", ratio(in.priced[name], pricedAll))
	}
	m.set("accel.device_s_per_option", "s", ratio(in.d.sumPrefix("binopt_backend_modelled_device_seconds_total{"), pricedAll))
	m.set("accel.flops_per_option", "flop", ratio(in.d.sumPrefix("binopt_backend_flops_total{"), pricedAll))
	m.set("accel.global_bytes_per_option", "B", ratio(in.d.sumPrefix("binopt_backend_global_bytes_total{"), pricedAll))
	m.set("accel.host_bytes_per_option", "B", ratio(in.d.sumPrefix("binopt_backend_host_bytes_total{"), pricedAll))

	// lattice
	m.set("lattice.quad_opt_per_core_s", "1/s", in.replayQuad)
	m.set("lattice.scalar_opt_per_core_s", "1/s", in.replayScalar)
	m.set("lattice.quad_speedup", "ratio", ratio(in.replayQuad, in.replayScalar))
	kernelS := ratio(in.kernelQuad, in.replayQuad) + ratio(in.kernelScalar, in.replayScalar)
	m.set("lattice.kernel_share", "ratio", ratio(kernelS, in.w.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))))

	// telemetry
	m.set("telemetry.spans_per_option", "count", ratio(in.d["binopt_trace_spans_total"], float64(units)))
	m.set("telemetry.spans_dropped", "count", in.d["binopt_trace_spans_dropped_total"])

	// cluster
	m.set("cluster.forward_ms", "ms", meanDur(byName["forward"]))
	m.set("cluster.router_self_ms", "ms", ratio(ms(routerSelf), float64(nRouter)))
	m.set("cluster.shards_per_request", "count", ratio(float64(len(byName["forward"])), float64(nRouter)))
	var evMax, evSum float64
	for _, e := range in.nodeEvals {
		evSum += e
		if e > evMax {
			evMax = e
		}
	}
	m.set("cluster.node_skew", "ratio", ratio(evMax, ratio(evSum, float64(len(in.nodeEvals)))))

	// scenario
	var expand, price, aggregate float64
	for _, f := range byName["forward"] {
		t := timingEntries(f.Attrs["server_timing"])
		expand += t["expand"]
		price += t["price"]
		aggregate += t["aggregate"]
	}
	nf := float64(len(byName["forward"]))
	m.set("scenario.expand_ms", "ms", ratio(expand, nf))
	m.set("scenario.price_ms", "ms", ratio(price, nf))
	m.set("scenario.aggregate_ms", "ms", ratio(aggregate, nf))
	evals := 0.0
	if len(in.nodeEvals) > 0 {
		evals = ratio(float64(units), float64(answered))
	}
	m.set("scenario.evals_per_request", "count", evals)

	// loadgen
	m.set("loadgen.late_ms", "ms", ms(quantile(in.w.late, 0.99)))

	// the benchmark's own tracing
	m.set("tracing.overhead_share", "ratio", ratio(in.untraced.OptionsPerS-in.traced.OptionsPerS, in.untraced.OptionsPerS))
	m.set("tracing.overhead_p50_ms", "ms", in.traced.P50-in.untraced.P50)
	return m
}

// backendPriced reads each backend's engine-booked option count from a
// server's /healthz.
func backendPriced(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h struct {
		Backends []struct {
			Name   string  `json:"name"`
			Priced float64 `json:"priced_options"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("reading %s/healthz: %w", base, err)
	}
	out := make(map[string]float64, len(h.Backends))
	for _, b := range h.Backends {
		out[b.Name] = b.Priced
	}
	return out, nil
}

// nodeSnapshot is one serving node's counters and engine-booked priced
// counts at an instant.
type nodeSnapshot struct {
	c      counters
	priced map[string]float64
}

func snapshotNode(client *http.Client, base string) (nodeSnapshot, error) {
	c, err := scrape(client, base+"/metrics")
	if err != nil {
		return nodeSnapshot{}, err
	}
	p, err := backendPriced(client, base)
	if err != nil {
		return nodeSnapshot{}, err
	}
	return nodeSnapshot{c: c, priced: p}, nil
}

// snapshotDelta folds before/after snapshots of several nodes into
// fleet-wide counter and priced deltas, plus each node's delta of the
// named per-node counter.
func snapshotDelta(before, after []nodeSnapshot, perNode string) (counters, map[string]float64, []float64) {
	d := counters{}
	priced := map[string]float64{}
	var each []float64
	for i := range after {
		nd := delta(before[i].c, after[i].c)
		d.add(nd)
		each = append(each, nd[perNode])
		for k, v := range after[i].priced {
			priced[k] += v - before[i].priced[k]
		}
	}
	return d, priced, each
}
