package accel

import (
	"fmt"
	"math"
	"sync"

	"binopt/internal/kernels"
	"binopt/internal/lattice"
	"binopt/internal/opencl"
	"binopt/internal/option"
	"binopt/internal/perf"
)

// maxProbeSteps caps the depth of the construction-time kernel probe.
// The simulated runtime executes kernel IV.B with a goroutine per
// work-item and two real barriers per backward step, so a full-depth
// probe would cost seconds per engine; a few hundred steps already
// exercises every code path (params packing, leaf streaming, local
// memory, barriers, readback) while staying in the low milliseconds.
const maxProbeSteps = 256

// Engine is an executable pricing engine for one platform: the real
// kernel verified on the platform's simulated OpenCL device at
// construction, then served through the bit-identical host realisation
// of the same arithmetic, with every priced option accounted against the
// platform's modelled substrate activity (opencl.Counters) and energy.
//
// The two-phase design preserves the repository's exactness guarantee at
// serving throughput: kernel IV.B with host-computed double-precision
// leaves is proven bit-for-bit equal to the host lattice engine (the
// kernels package integration tests, re-checked here on every
// construction), so the host path IS the device arithmetic — only the
// clock is modelled, exactly as in the perf estimates.
type Engine struct {
	desc       Description
	est        perf.Estimate
	steps      int
	probeSteps int
	host       *lattice.Engine
	jpo        float64 // modelled joules per option

	// perOption is the modelled substrate activity of pricing one option
	// at serving depth, calibrated from the construction probe. perQuad
	// is the activity of one interleaved quad group (four options through
	// one shared sweep): control costs are paid once, data costs four
	// times — see quadGroupCounters.
	perOption opencl.Counters
	perQuad   opencl.Counters

	// spo and devPlan model the device clock: seconds per option from
	// the estimate, decomposed into the option's command schedule.
	spo     float64
	devPlan devCommandPlan

	mu       sync.Mutex
	totals   opencl.Counters
	priced   int64
	devClock float64 // modelled device-busy seconds accumulated

	// fault, when armed via SetFaultHook, is consulted before every
	// pricing; a non-nil return aborts the call with that error and
	// accounts nothing. It is how the fault injector (internal/faults)
	// makes the simulated substrate misbehave on demand.
	hookMu sync.RWMutex
	fault  func() error
}

// SetFaultHook arms (or, with nil, disarms) the engine's fault hook.
// Safe to call while the engine is serving; in-flight pricings keep the
// hook state they started with.
func (e *Engine) SetFaultHook(h func() error) {
	e.hookMu.Lock()
	e.fault = h
	e.hookMu.Unlock()
}

// faultCheck runs the armed hook, if any. The hook itself may sleep
// (latency-spike and stuck-shard profiles), so it runs outside the
// accounting lock.
func (e *Engine) faultCheck() error {
	e.hookMu.RLock()
	h := e.fault
	e.hookMu.RUnlock()
	if h == nil {
		return nil
	}
	return h()
}

// probeChain is the construction-time verification batch: the styles and
// rights the kernels branch on.
func probeChain() []option.Option {
	return []option.Option{
		{Right: option.Put, Style: option.American, Spot: 100, Strike: 105, Rate: 0.03, Sigma: 0.2, T: 0.5},
		{Right: option.Call, Style: option.European, Spot: 100, Strike: 95, Rate: 0.05, Div: 0.01, Sigma: 0.3, T: 1},
		{Right: option.Call, Style: option.American, Spot: 80, Strike: 100, Rate: 0.02, Div: 0.04, Sigma: 0.4, T: 2},
	}
}

// probePuts is the quad probe's puts-only group: with no call lane it
// runs the sweep's zero-cone trim and exercise retirement, which the
// mixed probeChain quad never reaches. ATM, deep-OTM and deep-ITM
// American puts plus a European put.
func probePuts() []option.Option {
	return []option.Option{
		{Right: option.Put, Style: option.American, Spot: 100, Strike: 100, Rate: 0.03, Sigma: 0.2, T: 0.5},
		{Right: option.Put, Style: option.American, Spot: 100, Strike: 60, Rate: 0.03, Sigma: 0.2, T: 0.5},
		{Right: option.Put, Style: option.American, Spot: 100, Strike: 150, Rate: 0.05, Sigma: 0.25, T: 1},
		{Right: option.Put, Style: option.European, Spot: 100, Strike: 110, Rate: 0.03, Div: 0.01, Sigma: 0.3, T: 1},
	}
}

// probeDepth picks the largest affordable probe depth the device can run
// kernel IV.B at: one work-item per tree row, rows*8 bytes of local
// memory per work-group.
func probeDepth(info opencl.DeviceInfo, steps int) int {
	p := steps
	if p > maxProbeSteps {
		p = maxProbeSteps
	}
	if m := info.MaxWorkGroupSize; m > 0 && p > m-1 {
		p = m - 1
	}
	if lb := info.LocalMemBytes; lb > 0 {
		if rows := int(lb/8) - 1; p > rows {
			p = rows
		}
	}
	if p < 1 {
		p = 1
	}
	return p
}

// newKernelEngine builds an engine whose substrate is kernel IV.B on the
// platform's OpenCL device: it runs the probe batch through the real
// runtime, asserts bit-for-bit parity with the host lattice, and
// calibrates the per-option counters from the metered run.
func newKernelEngine(desc Description, est perf.Estimate, steps int) (*Engine, error) {
	host, err := lattice.NewEngine(steps)
	if err != nil {
		return nil, fmt.Errorf("accel: %s: %w", desc.Name, err)
	}
	probe := probeDepth(desc.OpenCL, steps)
	ctx, err := opencl.NewContext(&opencl.Device{Info: desc.OpenCL})
	if err != nil {
		return nil, fmt.Errorf("accel: %s: %w", desc.Name, err)
	}
	chain := probeChain()
	res, err := kernels.RunIVB(ctx, chain, kernels.IVBConfig{
		Steps:        probe,
		Precision:    kernels.Double,
		LeavesOnHost: true,
	})
	if err != nil {
		return nil, fmt.Errorf("accel: %s: probe kernel: %w", desc.Name, err)
	}
	ref, err := lattice.NewEngine(probe)
	if err != nil {
		return nil, fmt.Errorf("accel: %s: %w", desc.Name, err)
	}
	for i, o := range chain {
		want, err := ref.Price(o)
		if err != nil {
			return nil, fmt.Errorf("accel: %s: probe reference: %w", desc.Name, err)
		}
		//binopt:ignore floateq the probe asserts bit-exact kernel/host parity (the §IV invariant), not numerical closeness
		if got := res.Prices[i]; got != want {
			return nil, fmt.Errorf("accel: %s: kernel/host parity violation at probe depth %d, option %d: device %v (%#x) vs host %v (%#x)",
				desc.Name, probe, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if err := verifyQuadParity(desc.Name, steps); err != nil {
		return nil, err
	}
	perOpt := scaleProbeCounters(res.Counters, len(chain), probe, steps)
	return &Engine{
		desc:       desc,
		est:        est,
		steps:      steps,
		probeSteps: probe,
		host:       host,
		jpo:        joulesPerOption(est),
		perOption:  perOpt,
		perQuad:    quadGroupCounters(perOpt, 4),
		spo:        secondsPerOption(est),
		devPlan:    newDevCommandPlan(perOpt),
	}, nil
}

// newHostEngine builds the CPU reference engine: no OpenCL substrate,
// the host lattice is the device. Its modelled activity is the
// arithmetic alone.
func newHostEngine(desc Description, est perf.Estimate, steps int) (*Engine, error) {
	host, err := lattice.NewEngine(steps)
	if err != nil {
		return nil, fmt.Errorf("accel: %s: %w", desc.Name, err)
	}
	if err := verifyQuadParity(desc.Name, steps); err != nil {
		return nil, err
	}
	const flopsPerNode = 6
	perOpt := opencl.Counters{Flops: nodesFor(steps) * flopsPerNode}
	return &Engine{
		desc:      desc,
		est:       est,
		steps:     steps,
		host:      host,
		jpo:       joulesPerOption(est),
		perOption: perOpt,
		perQuad:   quadGroupCounters(perOpt, 4),
		spo:       secondsPerOption(est),
		devPlan:   newDevCommandPlan(perOpt),
	}, nil
}

// verifyQuadParity extends the construction-time parity guarantee to
// the interleaved batch path: the quad sweep, on the level kernels this
// process serves with (lattice.QuadKernel), must reproduce the scalar
// host lattice bit for bit on the probe chain and the puts-only probe
// group before the engine is allowed to serve batches through it. Depth
// is capped like the kernel probe; the quad kernels have no
// depth-dependent branches, so a few hundred steps exercise every path.
//
// The verdict depends on the probe depth alone, so it is computed once
// per depth per process (error included) and every engine built at that
// depth, concurrently or not, gets the same result.
func verifyQuadParity(name string, steps int) error {
	depth := min(steps, maxProbeSteps)
	v, _ := quadProbes.LoadOrStore(depth, new(quadProbe))
	p := v.(*quadProbe)
	p.once.Do(func() { p.err = checkQuadParity(depth) })
	if p.err != nil {
		return fmt.Errorf("accel: %s: %w", name, p.err)
	}
	return nil
}

// quadProbes memoises checkQuadParity per probe depth (int → *quadProbe).
var quadProbes sync.Map

type quadProbe struct {
	once sync.Once
	err  error
}

// checkQuadParity runs the quad/scalar probe sweep at one depth.
func checkQuadParity(depth int) error {
	ref, err := lattice.NewEngine(depth)
	if err != nil {
		return fmt.Errorf("quad probe: %w", err)
	}
	qp := ref.NewQuadPlan()
	for _, chain := range [][]option.Option{probeChain(), probePuts()} {
		if err := qp.Load(chain); err != nil {
			return fmt.Errorf("quad probe: %w", err)
		}
		got := qp.Exec()
		for i, o := range chain {
			want, err := ref.Price(o)
			if err != nil {
				return fmt.Errorf("quad probe reference: %w", err)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				return fmt.Errorf("quad/scalar parity violation (%s kernels, probe depth %d, %s): quad %v (%#x) vs scalar %v (%#x)",
					lattice.QuadKernel(), depth, o, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
	return nil
}

// quadGroupCounters models one interleaved quad group carrying `lanes`
// live options from the per-option activity: the shared sweep launches
// one kernel over one set of work-items and crosses each barrier once
// for all lanes (control costs ×1), while every node touches one value
// and performs one lane of arithmetic per live lane (data costs
// ×lanes). The result readback is one transfer carrying the lanes'
// prices. A one-lane group costs exactly per.
func quadGroupCounters(per opencl.Counters, lanes int) opencl.Counters {
	l := int64(lanes)
	return opencl.Counters{
		Kernels:        per.Kernels,
		KernelLaunches: per.KernelLaunches,
		WorkGroups:     per.WorkGroups,
		WorkItems:      per.WorkItems,
		Barriers:       per.Barriers,
		HostReads:      per.HostReads,
		HostTransfers:  per.HostTransfers,
		GlobalReads:    l * per.GlobalReads,
		GlobalWrites:   l * per.GlobalWrites,
		LocalReads:     l * per.LocalReads,
		LocalWrites:    l * per.LocalWrites,
		Flops:          l * per.Flops,
		HostWrites:     l * per.HostWrites,
	}
}

func joulesPerOption(est perf.Estimate) float64 {
	if est.OptionsPerSec <= 0 {
		return 0
	}
	return est.PowerWatts / est.OptionsPerSec
}

func nodesFor(steps int) int64 {
	n := int64(steps)
	return n * (n + 1) / 2
}

// scaleProbeCounters converts the metered activity of the probe batch
// into the modelled per-option activity at serving depth. Quantities
// proportional to tree nodes (arithmetic, local traffic, barriers) scale
// by the node ratio; quantities proportional to tree rows (work-items,
// parameter/leaf traffic) scale by the row ratio; per-option fixed costs
// (result readback, launches) carry over unscaled.
func scaleProbeCounters(c opencl.Counters, batch, probe, steps int) opencl.Counters {
	nodeR := float64(nodesFor(steps)) / float64(nodesFor(probe))
	rowR := float64(steps+1) / float64(probe+1)
	per := func(v int64, ratio float64) int64 {
		return int64(math.Round(float64(v) / float64(batch) * ratio))
	}
	return opencl.Counters{
		Kernels:        per(c.Kernels, 1),
		KernelLaunches: per(c.KernelLaunches, 1),
		WorkGroups:     per(c.WorkGroups, 1),
		WorkItems:      per(c.WorkItems, rowR),
		GlobalReads:    per(c.GlobalReads, rowR),
		GlobalWrites:   per(c.GlobalWrites, 1),
		LocalReads:     per(c.LocalReads, nodeR),
		LocalWrites:    per(c.LocalWrites, nodeR),
		Flops:          per(c.Flops, nodeR),
		Barriers:       per(c.Barriers, nodeR),
		HostWrites:     per(c.HostWrites, rowR),
		HostReads:      per(c.HostReads, 1),
		HostTransfers:  per(c.HostTransfers, 1),
	}
}

// Describe returns the owning platform's description.
func (e *Engine) Describe() Description { return e.desc }

// Estimate returns the modelled throughput/power row the engine was
// built against.
func (e *Engine) Estimate() perf.Estimate { return e.est }

// Steps reports the serving tree depth.
func (e *Engine) Steps() int { return e.steps }

// ProbeSteps reports the depth of the construction-time kernel probe
// (zero for host-substrate engines).
func (e *Engine) ProbeSteps() int { return e.probeSteps }

// Price prices one option and accounts its modelled substrate activity.
// An armed fault hook is consulted first; its error fails the call with
// no accounting, exactly as a device-side launch failure would.
func (e *Engine) Price(o option.Option) (float64, error) {
	if err := e.faultCheck(); err != nil {
		return 0, err
	}
	p, err := e.host.Price(o)
	if err != nil {
		return 0, err
	}
	e.account(1)
	return p, nil
}

// PriceTraced prices one option and additionally returns its modelled
// device timeline: the interval the option occupied on this platform's
// virtual device clock, decomposed into the commands the host program
// would have enqueued, with the four profiling timestamps each. The
// telemetry layer renders these as the device lane of the trace.
func (e *Engine) PriceTraced(o option.Option) (float64, DeviceTrace, error) {
	if err := e.faultCheck(); err != nil {
		return 0, DeviceTrace{}, err
	}
	p, err := e.host.Price(o)
	if err != nil {
		return 0, DeviceTrace{}, err
	}
	start := e.account(1)
	return p, e.devPlan.trace(e.desc.Name, start, e.spo), nil
}

// PriceBatch prices a batch (workers <= 0 uses GOMAXPROCS) and accounts
// its modelled substrate activity. The fault hook is consulted once per
// batch — the batch is one modelled device submission. The host lattice
// routes the batch through quad-interleaved sweeps, so the accounting
// mirrors the dispatch: full groups of four book one shared-sweep quad
// group, and the trailing partial group books a group of its live
// lanes.
func (e *Engine) PriceBatch(opts []option.Option, workers int) ([]float64, error) {
	if err := e.faultCheck(); err != nil {
		return nil, err
	}
	prices, err := e.host.PriceBatch(opts, workers)
	if err != nil {
		return nil, err
	}
	e.accountBatch(len(opts))
	return prices, nil
}

// PriceAndGreeksBatch prices a batch with full sensitivities through
// the host's quad-batched Greeks path and accounts the modelled
// substrate activity of the five contract evaluations each position
// costs: one scalar retained sweep plus one interleaved quad group
// carrying the four vega/rho bump contracts. The fault hook is
// consulted once per batch, like PriceBatch.
func (e *Engine) PriceAndGreeksBatch(opts []option.Option, workers int) ([]float64, []lattice.Greeks, error) {
	if err := e.faultCheck(); err != nil {
		return nil, nil, err
	}
	prices, greeks, err := e.host.PriceAndGreeksBatch(opts, workers)
	if err != nil {
		return nil, nil, err
	}
	e.accountGreeksBatch(len(opts))
	return prices, greeks, nil
}

// accountGreeksBatch books n positions evaluated with sensitivities:
// per position one scalar sweep plus one quad group, five contract
// evaluations on the modelled device clock and energy ledger.
func (e *Engine) accountGreeksBatch(n int) {
	var add opencl.Counters
	for i := 0; i < n; i++ {
		add.Add(e.perOption)
		add.Add(e.perQuad)
	}
	e.book(add, 5*n)
}

// account books n scalar-priced options and advances the modelled
// device clock, returning the device-clock position the work started
// at.
func (e *Engine) account(n int) float64 {
	var add opencl.Counters
	for i := 0; i < n; i++ {
		add.Add(e.perOption)
	}
	return e.book(add, n)
}

// accountBatch books n options priced through the quad-interleaved
// batch path: full groups of four accumulate perQuad, a trailing group
// of one to three lanes its own partial group. The device clock and
// modelled energy remain per-option — they model the paper's measured
// device, which the interleaving does not change.
func (e *Engine) accountBatch(n int) {
	var add opencl.Counters
	for i := 0; i < n/4; i++ {
		add.Add(e.perQuad)
	}
	if r := n % 4; r > 0 {
		add.Add(quadGroupCounters(e.perOption, r))
	}
	e.book(add, n)
}

// book commits accumulated counters plus n options of device-clock
// advance, returning the clock position the work started at.
func (e *Engine) book(add opencl.Counters, n int) float64 {
	e.mu.Lock()
	e.totals.Add(add)
	e.priced += int64(n)
	start := e.devClock
	e.devClock += float64(n) * e.spo
	e.mu.Unlock()
	return start
}

// Counters returns the accumulated modelled substrate activity.
func (e *Engine) Counters() opencl.Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.totals
}

// PricedOptions reports how many options the engine has priced.
func (e *Engine) PricedOptions() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.priced
}

// ModelledJoulesPerOption is the platform's modelled energy per priced
// option (power / throughput from the estimate).
func (e *Engine) ModelledJoulesPerOption() float64 { return e.jpo }

// ModelledSecondsPerOption is the modelled device time of one option
// (1 / OptionsPerSec from the estimate).
func (e *Engine) ModelledSecondsPerOption() float64 { return e.spo }

// ModelledDeviceSeconds is the total modelled device-busy time of
// everything priced: the device clock's current position.
func (e *Engine) ModelledDeviceSeconds() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.devClock
}

// ModelledJoules is the total modelled energy of everything priced.
func (e *Engine) ModelledJoules() float64 {
	return float64(e.PricedOptions()) * e.jpo
}
