package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	a := qsSchedule(7, 10*time.Second)
	b := qsSchedule(7, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, qsSchedule(8, 10*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	ticks := 0
	for i, e := range a {
		if i > 0 && e.at < a[i-1].at {
			t.Fatalf("event %d at %v before event %d at %v", i, e.at, i-1, a[i-1].at)
		}
		if e.tick {
			ticks++
			continue
		}
		if len(e.idx) < 1 || len(e.idx) > qsMaxReq {
			t.Fatalf("event %d has %d contracts", i, len(e.idx))
		}
		seen := map[int]bool{}
		for _, k := range e.idx {
			if k < 0 || k >= qsUniverse || seen[k] {
				t.Fatalf("event %d draws %v: out of range or repeated", i, e.idx)
			}
			seen[k] = true
		}
	}
	if want := int(10 * time.Second / qsTick); ticks != want {
		t.Fatalf("%d ticks in 10s, want %d", ticks, want)
	}
}

func TestInputsDeterministic(t *testing.T) {
	u1, err := qsUniverseFor(3)
	if err != nil {
		t.Fatal(err)
	}
	u2, _ := qsUniverseFor(3)
	if !reflect.DeepEqual(u1, u2) {
		t.Fatal("universe differs for one seed")
	}

	c1, err := volChunkAt(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := volChunkAt(3, 9)
	if !reflect.DeepEqual(c1, c2) || len(c1) != volChunk {
		t.Fatal("volatility-curve chunk differs for one seed and sequence number")
	}
	// No contract repeats across the chains of a run, so none can hit
	// the cache.
	seen := map[[2]float64]bool{}
	for seq := 0; seq < 3*volChain/volChunk; seq++ {
		chunk, err := volChunkAt(3, seq)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range chunk {
			k := [2]float64{o.Spot, o.Strike}
			if seen[k] {
				t.Fatalf("contract %+v repeats", o)
			}
			seen[k] = true
		}
	}
	if !reflect.DeepEqual(volSample(3, 5), volSample(3, 5)) {
		t.Fatal("oracle sample differs for one seed")
	}

	b1, err := rfBook(3)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := rfBook(3)
	if !reflect.DeepEqual(b1, b2) || len(b1) != rfPositions {
		t.Fatal("risk book differs for one seed")
	}
	keys := map[string]bool{}
	for seq := 0; seq < 4; seq++ {
		g := rfGrid(3, seq)
		if !reflect.DeepEqual(g, rfGrid(3, seq)) {
			t.Fatal("shock grid differs for one seed and sequence number")
		}
		shocks, err := g.Shocks()
		if err != nil {
			t.Fatal(err)
		}
		if len(shocks) != rfScenarios {
			t.Fatalf("grid expands to %d scenarios, want %d", len(shocks), rfScenarios)
		}
		for _, sh := range shocks {
			if keys[sh.Key()] {
				t.Fatalf("scenario %s repeats across requests", sh.Key())
			}
			keys[sh.Key()] = true
		}
	}
}

func durs(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestTailKeepsTenBeyond(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- { // 1..100 ms, unsorted
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	v, pct, beyond := tail(s)
	if v != 90*time.Millisecond || beyond != 10 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v with %d beyond, want 90ms at p90 with 10", v, pct, beyond)
	}
	v, pct, beyond = tail(durs(5, 1, 4, 2, 3, 11, 10, 9, 8, 7, 6, 12))
	if v != 2*time.Millisecond || beyond != 10 || pct != 200.0/12 {
		t.Fatalf("tail of 12 samples = %v at p%v with %d beyond", v, pct, beyond)
	}
	// Too few samples for any percentile: the smallest, flagged by
	// fewer than ten beyond.
	v, _, beyond = tail(durs(3, 1, 2))
	if v != time.Millisecond || beyond != 2 {
		t.Fatalf("tail of 3 samples = %v with %d beyond", v, beyond)
	}
	if m := median(durs(4, 1, 3, 2)); m != 2500*time.Microsecond {
		t.Fatalf("median = %v", m)
	}
}

func TestSummarizeOnReferenceHost(t *testing.T) {
	// Two 1 s segments, the first on a host at half the reference
	// speed: 1.5 reference seconds, latencies scaled per segment.
	probed := &window{elapsed: 2 * time.Second, refElapsed: 1500 * time.Millisecond, reqs: []*request{
		{lat: 400 * time.Millisecond, units: 30, hostScale: 0.5},
		{lat: 100 * time.Millisecond, units: 30, hostScale: 1},
		{lat: 50 * time.Millisecond, units: 30, hostScale: 1, err: httpStatusError(429)},
	}}
	s := probed.summarize(250 * time.Millisecond)
	if s.OptionsPerS != 40 || s.RawOptionsPerS != 30 {
		t.Fatalf("options/s = %v (raw %v), want 40 (raw 30)", s.OptionsPerS, s.RawOptionsPerS)
	}
	if s.P50 != 150 || s.RawP50 != 250 {
		t.Fatalf("p50 = %v ms (raw %v), want 150 (raw 250)", s.P50, s.RawP50)
	}
	if s.SLOMet != 2.0/3 {
		t.Fatalf("slo met share = %v, want 2/3 on scaled latencies", s.SLOMet)
	}
	// An open loop is not probed: figures stay as timed.
	open := &window{elapsed: 2 * time.Second, reqs: []*request{{lat: 400 * time.Millisecond, units: 30}}}
	if s := open.summarize(time.Second); s.OptionsPerS != 15 || s.P50 != 400 || s.RawP50 != 400 {
		t.Fatalf("unprobed window: options/s %v, p50 %v ms (raw %v)", s.OptionsPerS, s.P50, s.RawP50)
	}
	if v := probeSpeed(); !(v > 0) || math.IsInf(v, 0) {
		t.Fatalf("probe speed %v", v)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{Start: at(0), End: at(100)}
	cases := []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []span{{Start: at(10), End: at(20)}, {Start: at(50), End: at(80)}}, 60 * time.Millisecond},
		{"overlapping", []span{{Start: at(10), End: at(40)}, {Start: at(30), End: at(60)}, {Start: at(35), End: at(45)}}, 50 * time.Millisecond},
		{"touching", []span{{Start: at(10), End: at(20)}, {Start: at(20), End: at(30)}}, 80 * time.Millisecond},
		{"sticking out", []span{{Start: at(-20), End: at(10)}, {Start: at(90), End: at(130)}}, 80 * time.Millisecond},
		{"outside", []span{{Start: at(120), End: at(130)}}, 100 * time.Millisecond},
		{"covering", []span{{Start: at(-5), End: at(105)}, {Start: at(20), End: at(30)}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPricePhasesFromServerTiming(t *testing.T) {
	w := &window{reqs: []*request{
		{timing: "batch;dur=1.5, queue;dur=2, compute;dur=10, readback;dur=0.5, priced;dur=3, joules;dur=0.25"},
		{timing: "batch;dur=0.5, queue;dur=1, compute;dur=5, readback;dur=0.5, priced;dur=1, joules;dur=0.05"},
		{timing: "batch;dur=100, priced;dur=100", err: httpStatusError(429)}, // failed: ignored
		{timing: ""}, // all cache hits: no header
	}}
	p := w.pricePhases()
	if p.Priced != 4 || p.Batch != 2*time.Millisecond || p.Queue != 3*time.Millisecond ||
		p.Compute != 15*time.Millisecond || p.Readback != time.Millisecond || p.Joules != 0.3 {
		t.Fatalf("phases = %+v", p)
	}

	got := timingEntries("expand;dur=0.125, price;desc=\"x\";dur=812.5, aggregate;dur=0.3, evals;dur=560, bogus, joules;dur=abc")
	want := map[string]float64{"expand": 0.125, "price": 812.5, "aggregate": 0.3, "evals": 560}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario timing = %v, want %v", got, want)
	}
}

func TestCounterDeltas(t *testing.T) {
	before, err := parseCounters(`# HELP x
binopt_options_priced_total 10
binopt_batch_size_count 2
binopt_batch_size_sum 100
binopt_phase_seconds_bucket{phase="queue",le="0.001"} 4 # {trace_id="abc"} 0.0005 1700000000.000
binopt_backend_flops_total{backend="fpga-ivb"} 1e+06
binopt_backend_flops_total{backend="cpu-ref"} 5
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseCounters(`binopt_options_priced_total 25
binopt_batch_size_count 5
binopt_batch_size_sum 250
binopt_phase_seconds_bucket{phase="queue",le="0.001"} 9 # {trace_id="def"} 0.0007 1700000001.000
binopt_backend_flops_total{backend="fpga-ivb"} 3e+06
binopt_backend_flops_total{backend="cpu-ref"} 5
binopt_retries_total 2
`)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	checks := map[string]float64{
		"binopt_options_priced_total":                               15,
		"binopt_phase_seconds_bucket{phase=\"queue\",le=\"0.001\"}": 5,
		"binopt_retries_total":                                      2,
	}
	for k, want := range checks {
		if d[k] != want {
			t.Errorf("delta %s = %v, want %v", k, d[k], want)
		}
	}
	if m := ratio(d["binopt_batch_size_sum"], d["binopt_batch_size_count"]); m != 50 {
		t.Errorf("batch size mean over the window = %v, want 50", m)
	}
	if f := d.sumPrefix("binopt_backend_flops_total{"); f != 2e6 {
		t.Errorf("flops delta over backends = %v, want 2e6", f)
	}
	if _, err := parseCounters("binopt_x notanumber\n"); err == nil {
		t.Error("unparsable value accepted")
	}
}
