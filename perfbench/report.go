package main

import (
	"time"

	"binopt/internal/serve"
)

// metric is one named figure with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// request is one client request as the benchmark saw it.
type request struct {
	// lat runs from when the request was due (open loop) or sent
	// (closed loop) until its answer was read.
	lat time.Duration
	// hostScale converts lat to the reference host (probe.go); zero in
	// an open loop, which is not probed.
	hostScale float64
	// err is a transport error, a refusal or any other non-200 answer.
	err error
	// wrong marks an answer that differs from the oracle.
	wrong bool
	// units is the work delivered: contracts priced, or contract
	// evaluations for a revaluation.
	units  int
	cached int
	joules float64
	// timing is the answer's Server-Timing header.
	timing string
}

func (r *request) ok() bool { return r.err == nil && !r.wrong }

// window is one timed stretch of load.
type window struct {
	elapsed time.Duration
	// refElapsed is elapsed on the reference host and probes the host
	// speed at each segment boundary (closed loops only; see probe.go).
	refElapsed time.Duration
	probes     []float64
	reqs       []*request
	heapMB     float64
	// late is, per scheduled send of an open loop, how long after its
	// due time the generator actually sent it.
	late []time.Duration
}

func (w *window) failed() int {
	n := 0
	for _, r := range w.reqs {
		if !r.ok() {
			n++
		}
	}
	return n
}

func (w *window) wrong() int {
	n := 0
	for _, r := range w.reqs {
		if r.wrong {
			n++
		}
	}
	return n
}

// summary is a window reduced to its end-to-end figures.
type summary struct {
	OptionsPerS float64 `json:"options_per_s"`
	P50         float64 `json:"lat_p50_ms"`
	Tail        float64 `json:"lat_tail_ms"`
	// Raw* are the three above as timed on this host, before the
	// conversion to the reference host (closed loops; see probe.go).
	RawOptionsPerS float64   `json:"raw_options_per_s"`
	RawP50         float64   `json:"raw_lat_p50_ms"`
	RawTail        float64   `json:"raw_lat_tail_ms"`
	Probes         []float64 `json:"host_probe_sweeps_per_s,omitempty"`
	TailPct        float64   `json:"lat_tail_percentile"`
	TailBeyond     int       `json:"lat_tail_samples_beyond"`
	Samples        int       `json:"lat_samples"`
	SLOMet         float64   `json:"slo_met_share"`
	SLOLimitMS     float64   `json:"slo_limit_ms"`
	JPerOption     float64   `json:"j_per_option"`
	Attempted      int       `json:"attempted"`
	Failed         int       `json:"failed"`
	Wrong          int       `json:"wrong"`
	HeapMB         float64   `json:"heap_peak_mb"`
}

// summarize reduces a window. Latency percentiles cover answered
// requests; a failed or refused request counts as missing the limit.
func (w *window) summarize(limit time.Duration) summary {
	var lats, raw []time.Duration
	units, met := 0, 0
	var joules float64
	for _, r := range w.reqs {
		if !r.ok() {
			continue
		}
		lat := r.lat
		if r.hostScale > 0 {
			lat = time.Duration(float64(lat) * r.hostScale)
		}
		lats = append(lats, lat)
		raw = append(raw, r.lat)
		units += r.units
		joules += r.joules
		if lat <= limit {
			met++
		}
	}
	elapsed := w.elapsed
	if w.refElapsed > 0 {
		elapsed = w.refElapsed
	}
	t, pct, beyond := tail(lats)
	rawTail, _, _ := tail(raw)
	return summary{
		OptionsPerS:    ratio(float64(units), elapsed.Seconds()),
		P50:            ms(median(lats)),
		Tail:           ms(t),
		RawOptionsPerS: ratio(float64(units), w.elapsed.Seconds()),
		RawP50:         ms(median(raw)),
		RawTail:        ms(rawTail),
		Probes:         w.probes,
		TailPct:        pct,
		TailBeyond:     beyond,
		Samples:        len(lats),
		SLOMet:         ratio(float64(met), float64(len(w.reqs))),
		SLOLimitMS:     ms(limit),
		JPerOption:     ratio(joules, float64(units)),
		Attempted:      len(w.reqs),
		Failed:         w.failed(),
		Wrong:          w.wrong(),
		HeapMB:         w.heapMB,
	}
}

// endToEnd is the metric set a --trace 0 run prints.
func (s summary) endToEnd(setupS float64) metricSet {
	m := metricSet{}
	m.set("options_per_s", "1/s", s.OptionsPerS)
	m.set("lat_p50_ms", "ms", s.P50)
	m.set("lat_tail_ms", "ms", s.Tail)
	m.set("slo_met_share", "ratio", s.SLOMet)
	m.set("j_per_option", "J", s.JPerOption)
	m.set("success_share", "ratio", 1-ratio(float64(s.Failed), float64(s.Attempted)))
	m.set("setup_s", "s", setupS)
	m.set("heap_peak_mb", "MiB", s.HeapMB)
	return m
}

// pricePhases sums the Server-Timing phase breakdowns of a window's
// answered price requests (parsed by the program's own parser).
func (w *window) pricePhases() serve.PhaseBreakdown {
	var total serve.PhaseBreakdown
	for _, r := range w.reqs {
		if !r.ok() || r.timing == "" {
			continue
		}
		if p, err := serve.ParseServerTiming(r.timing); err == nil {
			total.Add(p)
		}
	}
	return total
}

// delivered and cached total the work of answered requests.
func (w *window) delivered() (units, cached int) {
	for _, r := range w.reqs {
		if r.ok() {
			units += r.units
			cached += r.cached
		}
	}
	return units, cached
}
