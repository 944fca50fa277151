package accel

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"binopt/internal/lattice"
	"binopt/internal/opencl"
	"binopt/internal/option"
)

// TestEngineMatchesReference: every platform's engine must price
// bit-for-bit like the host reference at its serving depth.
func TestEngineMatchesReference(t *testing.T) {
	const steps = 64
	ref, err := lattice.NewEngine(steps)
	if err != nil {
		t.Fatal(err)
	}
	o := option.Option{Right: option.Put, Style: option.American,
		Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5}
	want, err := ref.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Platforms() {
		name := p.Describe().Name
		eng, err := p.NewEngine(steps)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", name, err)
		}
		got, err := eng.Price(o)
		if err != nil {
			t.Fatalf("%s: Price: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: price %v (%#x) != reference %v (%#x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if eng.Steps() != steps {
			t.Errorf("%s: Steps = %d", name, eng.Steps())
		}
	}
}

// TestEngineAccounting: counters and modelled energy accumulate with
// priced options, and the kernel-backed engines carry real substrate
// activity from the probe.
func TestEngineAccounting(t *testing.T) {
	for _, p := range Platforms() {
		d := p.Describe()
		eng, err := p.NewEngine(32)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if eng.PricedOptions() != 0 || eng.Counters() != (opencl.Counters{}) {
			t.Errorf("%s: fresh engine already accounted work", d.Name)
		}
		batch := probeChain()
		if _, err := eng.PriceBatch(batch, 1); err != nil {
			t.Fatalf("%s: PriceBatch: %v", d.Name, err)
		}
		if got := eng.PricedOptions(); got != int64(len(batch)) {
			t.Errorf("%s: priced %d, want %d", d.Name, got, len(batch))
		}
		c := eng.Counters()
		if c.Flops <= 0 {
			t.Errorf("%s: no modelled flops: %v", d.Name, c)
		}
		if d.Kind != "cpu" {
			if c.Barriers <= 0 || c.LocalReads <= 0 || c.HostBytes() <= 0 {
				t.Errorf("%s: kernel engine missing substrate activity: %v", d.Name, c)
			}
			if eng.ProbeSteps() <= 0 {
				t.Errorf("%s: no probe recorded", d.Name)
			}
		}
		if eng.ModelledJoulesPerOption() <= 0 {
			t.Errorf("%s: no modelled energy", d.Name)
		}
		wantJ := float64(len(batch)) * eng.ModelledJoulesPerOption()
		if got := eng.ModelledJoules(); math.Abs(got-wantJ) > 1e-12*wantJ {
			t.Errorf("%s: ModelledJoules = %g, want %g", d.Name, got, wantJ)
		}
	}
}

// TestQuadBatchAccounting: a batch routes through quad-interleaved
// sweeps, so its modelled activity must book one shared-sweep group per
// four options plus one partial group for the remainder — control costs
// paid once per group, data costs per lane. A one-lane remainder costs
// exactly one option.
func TestQuadBatchAccounting(t *testing.T) {
	for _, p := range Platforms() {
		d := p.Describe()
		eng, err := p.NewEngine(32)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		chain := probeChain()
		batch := make([]option.Option, 5) // one quad group + one scalar
		for i := range batch {
			batch[i] = chain[i%len(chain)]
			batch[i].Strike += float64(i)
		}
		if _, err := eng.PriceBatch(batch, 1); err != nil {
			t.Fatalf("%s: PriceBatch: %v", d.Name, err)
		}
		var want opencl.Counters
		want.Add(eng.perQuad)
		want.Add(eng.perOption)
		if got := eng.Counters(); got != want {
			t.Errorf("%s: batch of 5 booked %+v, want quad group + scalar %+v", d.Name, got, want)
		}
		// Data-side activity is per lane: 4 in the group + 1 scalar.
		if got := eng.Counters().Flops; got != 5*eng.perOption.Flops {
			t.Errorf("%s: batch flops %d, want 5x per-option %d", d.Name, got, 5*eng.perOption.Flops)
		}
		// Control-side activity is shared across the group's four lanes:
		// the group crosses each barrier once, so 5 options cost 2
		// options' worth of barriers, not 5.
		if d.Kind != "cpu" {
			if per := eng.perOption.Barriers; per <= 0 || eng.Counters().Barriers != 2*per {
				t.Errorf("%s: batch barriers %d, want 2x per-option %d",
					d.Name, eng.Counters().Barriers, per)
			}
		}
		// Two- and three-lane remainders: one partial group each, its
		// data costs per live lane, its control costs once.
		want = eng.Counters()
		for _, lanes := range []int{2, 3} {
			if _, err := eng.PriceBatch(batch[:lanes], 1); err != nil {
				t.Fatalf("%s: PriceBatch: %v", d.Name, err)
			}
			part := quadGroupCounters(eng.perOption, lanes)
			want.Add(part)
			if got := eng.Counters(); got != want {
				t.Errorf("%s: %d-lane remainder booked %+v, want %+v", d.Name, lanes, got, want)
			}
			if part.Flops != int64(lanes)*eng.perOption.Flops || part.Barriers != eng.perOption.Barriers {
				t.Errorf("%s: %d-lane group flops %d barriers %d, want %dx flops and 1x barriers of %+v",
					d.Name, lanes, part.Flops, part.Barriers, lanes, eng.perOption)
			}
		}
	}
}

// TestEngineCountersScaleWithDepth: the modelled per-option arithmetic
// must grow roughly quadratically with the serving depth even though the
// probe depth is capped.
func TestEngineCountersScaleWithDepth(t *testing.T) {
	fpga, err := Get("fpga-ivb")
	if err != nil {
		t.Fatal(err)
	}
	flopsAt := func(steps int) int64 {
		eng, err := fpga.NewEngine(steps)
		if err != nil {
			t.Fatalf("NewEngine(%d): %v", steps, err)
		}
		if _, err := eng.Price(probeChain()[0]); err != nil {
			t.Fatal(err)
		}
		return eng.Counters().Flops
	}
	f512, f1024 := flopsAt(512), flopsAt(1024)
	ratio := float64(f1024) / float64(f512)
	// nodes(1024)/nodes(512) = 1024*1025/(512*513) ≈ 3.996
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("flops ratio 1024/512 = %.2f (%d vs %d), want ~4", ratio, f1024, f512)
	}
}

// TestProbeDepthRespectsDeviceLimits: the probe must fit the device's
// work-group ceiling and local memory.
func TestProbeDepthRespectsDeviceLimits(t *testing.T) {
	cases := []struct {
		info  opencl.DeviceInfo
		steps int
		want  int
	}{
		{opencl.DeviceInfo{MaxWorkGroupSize: 2048, LocalMemBytes: 1 << 20}, 64, 64},
		{opencl.DeviceInfo{MaxWorkGroupSize: 2048, LocalMemBytes: 1 << 20}, 4096, maxProbeSteps},
		{opencl.DeviceInfo{MaxWorkGroupSize: 128, LocalMemBytes: 1 << 20}, 4096, 127},
		{opencl.DeviceInfo{MaxWorkGroupSize: 2048, LocalMemBytes: 512}, 4096, 63},
		{opencl.DeviceInfo{}, 100, 100},
	}
	for _, c := range cases {
		if got := probeDepth(c.info, c.steps); got != c.want {
			t.Errorf("probeDepth(%+v, %d) = %d, want %d", c.info, c.steps, got, c.want)
		}
	}
}

// TestVerifyQuadParityOncePerDepth pins the memoised construction-time
// quad check: constructors racing at one depth all get its verdict from
// one shared entry, a stored failure reaches every later constructor
// under its own name, and a depth past the probe cap shares the capped
// depth's entry.
func TestVerifyQuadParityOncePerDepth(t *testing.T) {
	const depth = 41 // no other test builds engines at this depth
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = verifyQuadParity(fmt.Sprintf("engine-%d", i), depth)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("constructor %d: %v", i, err)
		}
	}
	if _, ok := quadProbes.Load(depth); !ok {
		t.Fatalf("no memoised verdict for depth %d", depth)
	}

	if err := verifyQuadParity("deep", 4*maxProbeSteps); err != nil {
		t.Fatal(err)
	}
	if _, ok := quadProbes.Load(4 * maxProbeSteps); ok {
		t.Errorf("depth %d memoised uncapped; it should share depth %d's entry", 4*maxProbeSteps, maxProbeSteps)
	}

	const failing = 3
	bad := new(quadProbe)
	bad.once.Do(func() { bad.err = errors.New("quad/scalar parity violation (injected)") })
	if _, loaded := quadProbes.LoadOrStore(failing, bad); loaded {
		t.Fatalf("depth %d already memoised; pick an unused depth", failing)
	}
	t.Cleanup(func() { quadProbes.Delete(failing) })
	for _, name := range []string{"fpga-ivb", "cpu-ref"} {
		err := verifyQuadParity(name, failing)
		if err == nil || !strings.HasPrefix(err.Error(), "accel: "+name+": quad/scalar parity violation") {
			t.Errorf("%s: got %v, want the memoised failure under its own name", name, err)
		}
	}
}

// TestEngineFaultHook: an armed hook fails pricing with its error and
// accounts nothing — the injector's substrate outage must be invisible
// in the counters; disarming restores normal service.
func TestEngineFaultHook(t *testing.T) {
	p, err := Get("cpu-ref")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.NewEngine(32)
	if err != nil {
		t.Fatal(err)
	}
	o := option.Option{Right: option.Put, Style: option.American,
		Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5}

	boom := errors.New("boom")
	calls := 0
	eng.SetFaultHook(func() error {
		calls++
		if calls%2 == 1 {
			return boom
		}
		return nil
	})

	if _, err := eng.Price(o); !errors.Is(err, boom) {
		t.Fatalf("faulted Price = %v, want the hook's error", err)
	}
	if got := eng.PricedOptions(); got != 0 {
		t.Fatalf("failed pricing accounted %d options, want 0", got)
	}
	if c := eng.Counters(); c.Flops != 0 {
		t.Fatalf("failed pricing accounted %d flops, want 0", c.Flops)
	}
	if _, err := eng.Price(o); err != nil {
		t.Fatalf("hook pass-through still failed: %v", err)
	}
	if _, _, err := eng.PriceTraced(o); !errors.Is(err, boom) {
		t.Fatalf("faulted PriceTraced = %v, want the hook's error", err)
	}
	if _, err := eng.PriceBatch([]option.Option{o, o}, 1); err != nil {
		t.Fatalf("batch after even call count failed: %v", err)
	}
	if got := eng.PricedOptions(); got != 3 {
		t.Fatalf("priced %d options, want 3 (1 single + 2 batch)", got)
	}

	eng.SetFaultHook(nil)
	if _, err := eng.Price(o); err != nil {
		t.Fatalf("disarmed engine failed: %v", err)
	}
}
