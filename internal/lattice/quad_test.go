package lattice

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"binopt/internal/hwmath"
	"binopt/internal/option"
)

// quadChain builds four distinct contracts of the given right and style,
// spread across moneyness and vol so the four lanes exercise different
// early-exercise boundaries inside one shared sweep.
func quadChain(right option.Right, style option.Style) []option.Option {
	base := option.Option{
		Right: right, Style: style,
		Spot: 100, Strike: 105, Rate: 0.03, Div: 0.01, Sigma: 0.2, T: 0.5,
	}
	opts := make([]option.Option, 4)
	for i := range opts {
		o := base
		o.Spot = 80 + 15*float64(i)
		o.Strike = 70 + 20*float64(i)
		o.Sigma = 0.15 + 0.08*float64(i)
		o.T = 0.25 + 0.5*float64(i)
		opts[i] = o
	}
	return opts
}

// quadEngine builds the engine variant for one parity case.
func quadEngine(t *testing.T, steps int, single, deviceLeaves bool) *Engine {
	t.Helper()
	e := mustEngine(t, steps)
	if single {
		e = e.WithSinglePrecision()
	}
	if deviceLeaves {
		e = e.WithDeviceLeaves(hwmath.Accurate13SP1)
	}
	return e
}

// TestQuadScalarBitParity is the central invariant of the quad refactor:
// the interleaved sweep reproduces the scalar reference bit for bit
// across rights, styles, depths, precisions and leaf-initialisation
// modes. Under the race detector the two deepest trees run a single
// right/style combination to keep the instrumented sweep affordable; the
// plain CI pass covers the full table.
func TestQuadScalarBitParity(t *testing.T) {
	depths := []int{15, 512, 1024, 2047}
	for _, steps := range depths {
		for _, right := range []option.Right{option.Call, option.Put} {
			for _, style := range []option.Style{option.European, option.American} {
				if raceEnabled && steps >= 1024 && !(right == option.Put && style == option.American) {
					continue
				}
				for _, single := range []bool{false, true} {
					for _, device := range []bool{false, true} {
						name := fmt.Sprintf("n=%d/%v/%v/single=%v/device=%v", steps, right, style, single, device)
						t.Run(name, func(t *testing.T) {
							assertQuadParity(t, quadEngine(t, steps, single, device), quadChain(right, style))
						})
					}
				}
			}
		}
	}
}

// assertQuadParity loads opts into one quad plan, sweeps it and requires
// every lane to equal the scalar reference bit for bit. It returns the
// executed plan so callers can inspect its zero-cone bound.
func assertQuadParity(t *testing.T, e *Engine, opts []option.Option) *QuadPlan {
	t.Helper()
	qp := e.NewQuadPlan()
	if err := qp.Load(opts); err != nil {
		t.Fatal(err)
	}
	got := qp.Exec()
	for i, o := range opts {
		want, err := e.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("lane %d: %v (%#x) != scalar %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	return qp
}

// withStrikes returns one put per strike on one underlying, alternating
// American and European.
func withStrikes(strikes ...float64) []option.Option {
	opts := make([]option.Option, len(strikes))
	for i, k := range strikes {
		opts[i] = option.Option{
			Right: option.Put, Style: option.American,
			Spot: 100, Strike: k, Rate: 0.03, Sigma: 0.25, T: 0.5,
		}
		if i%2 == 1 {
			opts[i].Style = option.European
		}
	}
	return opts
}

// TestQuadZeroConeParity pins the zero-cone trim at its edges: a cone
// covering every leaf (the whole sweep skipped), no cone at all, a strike
// that equals a leaf bit for bit (the cone's first node has moneyness
// exactly 0), and a Jarrow–Rudd tree with d > 1, where an American put's
// ladder falls below the strike inside the cone and the lane must keep
// the full range. Each case also checks the bound the plan derived.
func TestQuadZeroConeParity(t *testing.T) {
	const n = 64
	for _, single := range []bool{false, true} {
		for _, device := range []bool{false, true} {
			e := quadEngine(t, n, single, device)
			name := fmt.Sprintf("single=%v/device=%v", single, device)
			t.Run(name+"/below-every-leaf", func(t *testing.T) {
				qp := assertQuadParity(t, e, withStrikes(1, 2, 5, 10))
				if qp.hi != 0 {
					t.Errorf("bound %d, want 0", qp.hi)
				}
			})
			t.Run(name+"/above-every-leaf", func(t *testing.T) {
				qp := assertQuadParity(t, e, withStrikes(1e4, 2e4, 5e4, 1e5))
				if qp.hi != n+1 {
					t.Errorf("bound %d, want %d", qp.hi, n+1)
				}
			})
			t.Run(name+"/strike-on-leaf", func(t *testing.T) {
				lp, err := option.NewLatticeParams(withStrikes(100)[0], n, option.CRR)
				if err != nil {
					t.Fatal(err)
				}
				var leaves []float64
				if device {
					leaves = DeviceLeafPrices(100, lp, e.pow, single)
				} else {
					leaves = HostLeafPrices(100, lp, option.CRR, single)
				}
				const j = n / 2
				qp := assertQuadParity(t, e, withStrikes(leaves[j], leaves[j-3], leaves[j-10], leaves[j]))
				if qp.hi != j {
					t.Errorf("bound %d, want %d", qp.hi, j)
				}
			})
		}
	}

	// Jarrow–Rudd with drift per step above vol per step: d > 1, so the
	// rounded invD < 1 and American puts are not trimmable. Every leaf
	// lies above the strikes, yet the root sits below them and exercises:
	// a trimmed lane would return 0. European puts still trim; the bound
	// follows the American lanes.
	for _, single := range []bool{false, true} {
		e := quadEngine(t, n, single, false).WithParameterisation(option.JarrowRudd)
		t.Run(fmt.Sprintf("single=%v/jarrow-rudd-d>1", single), func(t *testing.T) {
			opts := withStrikes(101, 102, 103, 105)
			for i := range opts {
				opts[i].Rate, opts[i].Sigma, opts[i].T = 0.5, 0.05, 1
			}
			lp, err := option.NewLatticeParams(opts[0], n, option.JarrowRudd)
			if err != nil {
				t.Fatal(err)
			}
			if !(lp.D > 1) {
				t.Fatalf("case needs d > 1, got %v", lp.D)
			}
			qp := assertQuadParity(t, e, opts)
			if qp.hi != n+1 {
				t.Errorf("bound %d, want %d: American puts with invD < 1 must keep the full range", qp.hi, n+1)
			}
			euro := []option.Option{opts[1], opts[3]}
			if qp = assertQuadParity(t, e, euro); qp.hi > n {
				t.Errorf("European puts with d > 1 should still trim, bound %d", qp.hi)
			}
		})
	}
}

// TestQuadRemainderGroups pins the batch pricer's partial groups: batch
// sizes 1–5 cover no-full-quad, exactly-one-quad, and quad-plus-
// remainder dispatch, in both precisions.
func TestQuadRemainderGroups(t *testing.T) {
	for _, single := range []bool{false, true} {
		e := quadEngine(t, 257, single, false)
		all := chainOf(5)
		for size := 1; size <= 5; size++ {
			opts := all[:size]
			want := make([]float64, size)
			for i, o := range opts {
				v, err := e.Price(o)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = v
			}
			for _, workers := range []int{1, 3} {
				got, err := e.PriceBatch(opts, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("single=%v size=%d workers=%d option %d: %v != %v",
							single, size, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestQuadPlanShortLoad pins the lane-mirroring contract: loading fewer
// than four options still executes, active lanes match scalar, and the
// mirrored tail repeats lane 0.
func TestQuadPlanShortLoad(t *testing.T) {
	e := mustEngine(t, 64)
	opts := quadChain(option.Put, option.American)[:2]
	qp := e.NewQuadPlan()
	if err := qp.Load(opts); err != nil {
		t.Fatal(err)
	}
	res := qp.Exec()
	for i, o := range opts {
		want, err := e.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res[i]) != math.Float64bits(want) {
			t.Errorf("lane %d: %v != %v", i, res[i], want)
		}
	}
	if math.Float64bits(res[2]) != math.Float64bits(res[0]) || math.Float64bits(res[3]) != math.Float64bits(res[0]) {
		t.Errorf("mirrored lanes diverge from lane 0: %v", res)
	}
}

// TestQuadPlanLoadRejects pins Load's argument contract and the error
// lane naming.
func TestQuadPlanLoadRejects(t *testing.T) {
	e := mustEngine(t, 16)
	qp := e.NewQuadPlan()
	if err := qp.Load(nil); err == nil {
		t.Error("empty load should fail")
	}
	if err := qp.Load(make([]option.Option, 5)); err == nil {
		t.Error("five-lane load should fail")
	}
	opts := quadChain(option.Put, option.American)
	opts[2].Sigma = -1
	err := qp.Load(opts)
	if err == nil {
		t.Fatal("invalid lane should fail the load")
	}
	if !strings.Contains(err.Error(), "lane 2") {
		t.Errorf("error should name lane 2, got %q", err)
	}
}

// TestPriceBatchStopsAfterError is the early-stop regression: once a
// group fails, the dispatcher must stop handing out indices and the
// workers must drain the rest without pricing doomed work.
func TestPriceBatchStopsAfterError(t *testing.T) {
	e := mustEngine(t, 64)
	opts := chainOf(4096)
	opts[0].Sigma = -1 // first quad group fails immediately

	out, priced, err := e.priceBatch(opts, 1)
	if err == nil {
		t.Fatal("batch with an invalid option should fail")
	}
	if out != nil {
		t.Errorf("failed batch should return nil results")
	}
	if !strings.Contains(err.Error(), "option 0") {
		t.Errorf("error should name option 0, got %q", err)
	}
	if priced != 1 {
		t.Errorf("single worker priced %d groups after the failure; early-stop should cap it at 1", priced)
	}

	// Multi-worker: a few in-flight groups may complete, but the 1024
	// groups must not all be priced.
	_, priced, err = e.priceBatch(opts, 4)
	if err == nil {
		t.Fatal("batch with an invalid option should fail")
	}
	if priced > 64 {
		t.Errorf("4 workers priced %d of 1024 groups after an immediate failure; dispatch did not stop", priced)
	}
}

// TestPriceBatchOrderInvariant pins the batch pricer's lane ordering:
// a mixed batch priced in its original, reversed and shuffled order
// returns every contract's scalar price bit for bit at its own position,
// whatever quads the put-first grouping cuts.
func TestPriceBatchOrderInvariant(t *testing.T) {
	e := mustEngine(t, 96)
	base := quadChain(option.Put, option.American)
	var opts []option.Option
	for i := 0; i < 23; i++ {
		o := base[i%4]
		o.Strike += float64(i)
		if i%3 == 1 {
			o.Right = option.Call
		}
		if i%5 == 2 {
			o.Style = option.European
		}
		opts = append(opts, o)
	}
	want := make([]float64, len(opts))
	for i, o := range opts {
		v, err := e.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	perms := map[string][]int{"original": {}, "reversed": {}, "shuffled": rand.New(rand.NewSource(1)).Perm(len(opts))}
	for i := range opts {
		perms["original"] = append(perms["original"], i)
		perms["reversed"] = append(perms["reversed"], len(opts)-1-i)
	}
	for name, perm := range perms {
		batch := make([]option.Option, len(perm))
		for j, i := range perm {
			batch[j] = opts[i]
		}
		for _, workers := range []int{1, 3} {
			got, err := e.PriceBatch(batch, workers)
			if err != nil {
				t.Fatal(err)
			}
			for j, i := range perm {
				if math.Float64bits(got[j]) != math.Float64bits(want[i]) {
					t.Errorf("%s workers=%d position %d (contract %d): %v != scalar %v", name, workers, j, i, got[j], want[i])
				}
			}
		}
	}
}

// FuzzQuadParity sweeps quads of fuzzed contracts against the scalar
// reference, bit for bit. rights and styles carry one bit per lane (set:
// put, American); cfg selects precision (bit 0), device leaves (bit 1)
// and the parameterisation (bits 2–3). A load must fail exactly when
// some lane's contract is invalid.
func FuzzQuadParity(f *testing.F) {
	// Seeds: the zero-cone edges of TestQuadZeroConeParity — strikes
	// below and above every leaf, a strike on a leaf — a Jarrow–Rudd
	// tree with d > 1, a single-precision Jarrow–Rudd tree whose
	// discounted probabilities round to +Inf, a mixed put/call quad, and
	// a two-lane partial group.
	lp, err := option.NewLatticeParams(withStrikes(100)[0], 32, option.CRR)
	if err != nil {
		f.Fatal(err)
	}
	onLeaf := HostLeafPrices(100, lp, option.CRR, false)[16]
	f.Add(uint8(3), uint8(15), uint8(5), uint8(0), uint8(31), 100.0, 0.03, 0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
	f.Add(uint8(3), uint8(15), uint8(10), uint8(1), uint8(31), 100.0, 0.03, 0.0, 0.25, 0.5, 1e4, 2e4, 5e4, 1e5)
	f.Add(uint8(3), uint8(15), uint8(5), uint8(0), uint8(31), 100.0, 0.03, 0.0, 0.25, 0.5, onLeaf, onLeaf, 90.0, 80.0)
	f.Add(uint8(3), uint8(15), uint8(15), uint8(4), uint8(63), 100.0, 0.5, 0.0, 0.05, 1.0, 101.0, 102.0, 103.0, 105.0)
	f.Add(uint8(3), uint8(15), uint8(0), uint8(5), uint8(0), 100.0, -90.0, 0.0, 0.1, 1.0, 1e-40, 1e-40, 1e-40, 1e-40)
	f.Add(uint8(3), uint8(5), uint8(3), uint8(0), uint8(100), 90.0, 0.02, 0.01, 0.3, 1.5, 85.0, 95.0, 105.0, 120.0)
	f.Add(uint8(1), uint8(3), uint8(1), uint8(8), uint8(33), 100.0, 0.03, 0.0, 0.2, 0.5, 95.0, 105.0, 0.0, 0.0)
	params := []option.Parameterisation{option.CRR, option.JarrowRudd, option.Tian, option.LeisenReimer}
	f.Fuzz(func(t *testing.T, lanes, rights, styles, cfg, steps uint8, spot, rate, div, sigma, expiry, k0, k1, k2, k3 float64) {
		e := mustEngine(t, 1+int(steps))
		if cfg&1 != 0 {
			e = e.WithSinglePrecision()
		}
		if cfg&2 != 0 {
			e = e.WithDeviceLeaves(hwmath.Accurate13SP1)
		}
		e = e.WithParameterisation(params[cfg>>2&3])
		strikes := [4]float64{k0, k1, k2, k3}
		opts := make([]option.Option, 1+int(lanes)%4)
		valid := true
		for i := range opts {
			opts[i] = option.Option{
				Right: option.Call, Style: option.European,
				Spot: spot, Strike: strikes[i], Rate: rate, Div: div, Sigma: sigma, T: expiry,
			}
			if rights>>i&1 != 0 {
				opts[i].Right = option.Put
			}
			if styles>>i&1 != 0 {
				opts[i].Style = option.American
			}
			if _, err := option.NewLatticeParams(opts[i], e.Steps(), e.param); err != nil {
				valid = false
			}
		}
		qp := e.NewQuadPlan()
		if err := qp.Load(opts); err != nil || !valid {
			if (err == nil) != valid {
				t.Fatalf("load error %v, contracts valid %v", err, valid)
			}
			return
		}
		got := qp.Exec()
		for i, o := range opts {
			want, err := e.Price(o)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("lane %d %+v: quad %v (%#x) != scalar %v (%#x), bound %d",
					i, o, got[i], math.Float64bits(got[i]), want, math.Float64bits(want), qp.hi)
			}
		}
	})
}
