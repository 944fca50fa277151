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

// kernelEngines returns e once per quad level-kernel set this host runs:
// as built, which selects the AVX2 kernels where the CPU has them, and
// then with the portable Go kernels forced, so every parity case checks
// both against the scalar reference.
func kernelEngines(e *Engine) []*Engine {
	if !hasAVX2 {
		return []*Engine{e}
	}
	return []*Engine{e, e.WithPortableKernels()}
}

// kernelName names the level kernels e's quad plans run.
func kernelName(e *Engine) string {
	if e.NewQuadPlan().avx2 {
		return "avx2"
	}
	return "portable"
}

// assertQuadParity loads opts into a quad plan per level-kernel set,
// sweeps it and requires every lane to equal the scalar reference bit
// for bit. It returns the last executed plan so callers can inspect its
// load-time bounds, which do not depend on the kernels.
func assertQuadParity(t *testing.T, e *Engine, opts []option.Option) *QuadPlan {
	t.Helper()
	var qp *QuadPlan
	for _, ke := range kernelEngines(e) {
		qp = loadQuad(t, ke, opts)
		assertLanes(t, ke, opts, qp.Exec())
	}
	return qp
}

// assertLanes requires each lane of got to equal opts' scalar reference
// price bit for bit.
func assertLanes(t *testing.T, e *Engine, opts []option.Option, got [4]float64) {
	t.Helper()
	for i, o := range opts {
		want, err := e.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("%s lane %d: %v (%#x) != scalar %v (%#x)",
				kernelName(e), i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
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
				leaves := engineLeaves(t, e, withStrikes(100)[0])
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

// engineLeaves returns the leaf ladder e derives for o.
func engineLeaves(t testing.TB, e *Engine, o option.Option) []float64 {
	t.Helper()
	lp, err := option.NewLatticeParams(o, e.steps, e.param)
	if err != nil {
		t.Fatal(err)
	}
	if e.leaf == LeafDevicePow {
		return DeviceLeafPrices(o.Spot, lp, e.pow, e.single)
	}
	return HostLeafPrices(o.Spot, lp, e.param, e.single)
}

// ladderAt returns column j's asset price m levels above the leaves, by
// the sweep's own recurrence s ← rnd(s·invD).
func ladderAt(t testing.TB, e *Engine, o option.Option, j, m int) float64 {
	t.Helper()
	lp, err := option.NewLatticeParams(o, e.steps, e.param)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rounder(e.single)
	invD := rnd(1 / rnd(lp.D))
	s := engineLeaves(t, e, o)[j]
	for ; m > 0; m-- {
		s = rnd(s * invD)
	}
	return s
}

// wantExerciseBound is the load-time exercise-live bound derived
// independently of the plan: one past the highest leaf column at which
// some American lane's asset price is not at or above its strike.
func wantExerciseBound(t testing.TB, e *Engine, opts []option.Option) int {
	t.Helper()
	ex := 0
	for _, o := range opts {
		if o.Style != option.American {
			continue
		}
		for k, s := range engineLeaves(t, e, o) {
			if !(s >= rounder(e.single)(o.Strike)) {
				ex = max(ex, k+1)
			}
		}
	}
	return ex
}

// sweepTrace runs the loaded plan's sweep level by level, as Exec does,
// and returns the exercise-live bound left after each level (indexed by
// level). It fails the test if the bound ever rises or exceeds the
// columns its level visited, and checks the swept lanes against the
// scalar reference bit for bit.
func sweepTrace(t *testing.T, e *Engine, qp *QuadPlan, opts []option.Option) []int {
	t.Helper()
	trace := make([]int, qp.n)
	ex := qp.ex
	for lv := qp.n - 1; lv >= 0; lv-- {
		cols := min(lv+1, qp.hi)
		next := qp.level(lv, ex)
		if next > ex || next > cols {
			t.Fatalf("level %d: bound %d -> %d with %d columns", lv, ex, next, cols)
		}
		ex = next
		trace[lv] = ex
	}
	var got [4]float64
	copy(got[:], qp.steps[:4])
	assertLanes(t, e, opts, got)
	return trace
}

// loadQuad loads opts into a fresh quad plan.
func loadQuad(t *testing.T, e *Engine, opts []option.Option) *QuadPlan {
	t.Helper()
	qp := e.NewQuadPlan()
	if err := qp.Load(opts); err != nil {
		t.Fatal(err)
	}
	return qp
}

// TestQuadExerciseRetireParity pins the exercise retirement at its
// edges: an all-European quad (bound 0, the ladder never touched), a
// mixed American/European put quad, a strike equal bit for bit to an
// interior ladder value (the column retires at the level where s == K),
// a deep-ITM put that never retires, and a Jarrow–Rudd d > 1 American
// put, which rules retirement out. Each case checks the load-time bound
// and parity with the scalar reference.
func TestQuadExerciseRetireParity(t *testing.T) {
	const n = 64
	for _, single := range []bool{false, true} {
		for _, device := range []bool{false, true} {
			engines := kernelEngines(quadEngine(t, n, single, device))
			name := fmt.Sprintf("single=%v/device=%v", single, device)
			t.Run(name+"/all-european", func(t *testing.T) {
				opts := withStrikes(90, 100, 110, 120)
				for i := range opts {
					opts[i].Style = option.European
				}
				opts[2].Right, opts[3].Right = option.Call, option.Call
				for _, e := range engines {
					qp := loadQuad(t, e, opts)
					if qp.ex != 0 {
						t.Errorf("bound %d, want 0", qp.ex)
					}
					loaded := append([]float64(nil), qp.ladder...)
					sweepTrace(t, e, qp, opts)
					for k := range loaded {
						if math.Float64bits(qp.ladder[k]) != math.Float64bits(loaded[k]) {
							t.Fatalf("%s: ladder slot %d touched: %v -> %v", kernelName(e), k, loaded[k], qp.ladder[k])
						}
					}
				}
			})
			t.Run(name+"/mixed-american-european", func(t *testing.T) {
				opts := withStrikes(90, 100, 85, 120)
				for _, e := range engines {
					qp := loadQuad(t, e, opts)
					if want := wantExerciseBound(t, e, opts); qp.ex != want || want < 1 || want > n {
						t.Errorf("bound %d, want %d inside [1, %d]", qp.ex, want, n)
					}
					trace := sweepTrace(t, e, qp, opts)
					if trace[0] != 0 {
						t.Errorf("%s: root level left bound %d: the out-of-the-money root never retired", kernelName(e), trace[0])
					}
				}
			})
			t.Run(name+"/strike-on-interior-ladder", func(t *testing.T) {
				const j, m = n/2 - 4, 8
				opts := withStrikes(100, 80, 95, 70)
				opts[0].Strike = ladderAt(t, engines[0], opts[0], j, m)
				opts[2].Style = option.European
				for _, e := range engines {
					qp := loadQuad(t, e, opts)
					if want := wantExerciseBound(t, e, opts); qp.ex != want {
						t.Errorf("bound %d, want %d", qp.ex, want)
					}
					trace := sweepTrace(t, e, qp, opts)
					// Column j reaches s == K at level n−m and retires
					// there, not a level earlier.
					if got := trace[n-m]; got != j {
						t.Errorf("%s: bound after level %d is %d, want %d", kernelName(e), n-m, got, j)
					}
					if got := trace[n-m+1]; got <= j {
						t.Errorf("%s: bound after level %d is %d: column %d retired before s == K", kernelName(e), n-m+1, got, j)
					}
				}
			})
			t.Run(name+"/deep-itm-never-retires", func(t *testing.T) {
				opts := withStrikes(1e4, 90, 80, 100)
				for _, e := range engines {
					qp := loadQuad(t, e, opts)
					if qp.ex != n+1 {
						t.Errorf("bound %d, want %d", qp.ex, n+1)
					}
					for lv, ex := range sweepTrace(t, e, qp, opts) {
						if ex != lv+1 {
							t.Errorf("%s: bound after level %d is %d, want every column live", kernelName(e), lv, ex)
						}
					}
				}
			})
			t.Run(name+"/jarrow-rudd-d>1", func(t *testing.T) {
				opts := withStrikes(101, 102, 103, 105)
				for i := range opts {
					opts[i].Rate, opts[i].Sigma, opts[i].T = 0.5, 0.05, 1
				}
				for _, e := range engines {
					e := e.WithParameterisation(option.JarrowRudd)
					qp := loadQuad(t, e, opts)
					if qp.ex != n+1 || qp.retire {
						t.Errorf("bound %d retire %v, want %d and no retirement", qp.ex, qp.retire, n+1)
					}
					sweepTrace(t, e, qp, opts)
				}
			})
		}
	}
}

// TestQuadExerciseBoundShrinks checks, over random put and mixed quads
// in both precisions, that the exercise-live bound never rises from one
// level to the next and never exceeds the columns a level visits, and
// that the traced sweep still matches the scalar reference bit for bit.
func TestQuadExerciseBoundShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, single := range []bool{false, true} {
		engines := kernelEngines(quadEngine(t, 96, single, false))
		for q := 0; q < 40; q++ {
			opts := make([]option.Option, 1+rng.Intn(4))
			for i := range opts {
				opts[i] = option.Option{
					Right: option.Put, Style: option.American,
					Spot: 100, Strike: 50 + 100*rng.Float64(), Rate: 0.05 * rng.Float64(),
					Sigma: 0.1 + 0.4*rng.Float64(), T: 0.1 + 2*rng.Float64(),
				}
				if rng.Intn(4) == 0 {
					opts[i].Style = option.European
				}
				if q%5 == 0 && rng.Intn(2) == 0 {
					opts[i].Right = option.Call
				}
			}
			for _, e := range engines {
				sweepTrace(t, e, loadQuad(t, e, opts), opts)
			}
		}
	}
}

// TestQuadAVX2WrapperBounds pins the AVX2 wrapper's bounds checks: a
// column bound past the plan's buffers, or a negative one, panics in Go
// before the assembly runs instead of reading or writing out of bounds.
func TestQuadAVX2WrapperBounds(t *testing.T) {
	if !hasAVX2 {
		t.Skip("host has no AVX2")
	}
	for _, single := range []bool{false, true} {
		qp := loadQuad(t, quadEngine(t, 16, single, false), quadChain(option.Put, option.American))
		n := qp.n
		qp.levelAVX2(n, n) // the widest legal level
		for _, c := range []struct {
			name    string
			ex, col int
		}{
			{"full run past the top column", n + 1, n + 1},
			{"continuation past the top column", 0, n + 1},
			{"negative continuation start", -1, 4},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("single=%v %s: levelAVX2(%d, %d) did not panic", single, c.name, c.ex, c.col)
					}
				}()
				qp.levelAVX2(c.ex, c.col)
			}()
		}
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
// a batch mixing all four (right, style) classes, with enough European
// puts and calls to fill all-European quads, priced in its original,
// reversed and shuffled order returns every contract's scalar price bit
// for bit at its own position, whatever quads laneOrder cuts — and
// laneOrder groups the classes stably.
func TestPriceBatchOrderInvariant(t *testing.T) {
	e := mustEngine(t, 96)
	base := quadChain(option.Put, option.American)
	var opts []option.Option
	for i := 0; i < 35; i++ {
		o := base[i%4]
		o.Strike += float64(i)
		if i%3 == 1 {
			o.Right = option.Call
		}
		if i%5 == 2 || i >= 23 {
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
		class := func(o option.Option) [2]bool { return [2]bool{o.Right != option.Put, o.Style != option.American} }
		order := laneOrder(batch)
		for j := 1; j < len(order); j++ {
			a, b := class(batch[order[j-1]]), class(batch[order[j]])
			if a == b && order[j-1] > order[j] {
				t.Errorf("%s: laneOrder is not stable within %v", name, a)
			}
			if a != b && (a[0] && !b[0] || a[0] == b[0] && a[1] && !b[1]) {
				t.Errorf("%s: laneOrder puts class %v ahead of %v", name, a, b)
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
	// discounted probabilities round to +Inf, a mixed put/call quad, a
	// two-lane partial group, and the exercise-retirement edges of
	// TestQuadExerciseRetireParity: an all-European quad, a mixed
	// American/European put quad, a strike on an interior ladder value
	// and a deep-ITM put that never retires. The last seed is a
	// Jarrow–Rudd tree whose discounted weights overflow, so two NaNs of
	// different payloads meet in the continuation sum: it pins the AVX2
	// kernel's add operand order to the compiled scalar reference's.
	lp, err := option.NewLatticeParams(withStrikes(100)[0], 32, option.CRR)
	if err != nil {
		f.Fatal(err)
	}
	onLeaf := HostLeafPrices(100, lp, option.CRR, false)[16]
	onLadder := ladderAt(f, mustEngine(f, 64), withStrikes(100)[0], 28, 8)
	f.Add(uint8(3), uint8(15), uint8(5), uint8(0), uint8(31), 100.0, 0.03, 0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
	f.Add(uint8(3), uint8(15), uint8(10), uint8(1), uint8(31), 100.0, 0.03, 0.0, 0.25, 0.5, 1e4, 2e4, 5e4, 1e5)
	f.Add(uint8(3), uint8(15), uint8(5), uint8(0), uint8(31), 100.0, 0.03, 0.0, 0.25, 0.5, onLeaf, onLeaf, 90.0, 80.0)
	f.Add(uint8(3), uint8(15), uint8(15), uint8(4), uint8(63), 100.0, 0.5, 0.0, 0.05, 1.0, 101.0, 102.0, 103.0, 105.0)
	f.Add(uint8(3), uint8(15), uint8(0), uint8(5), uint8(0), 100.0, -90.0, 0.0, 0.1, 1.0, 1e-40, 1e-40, 1e-40, 1e-40)
	f.Add(uint8(3), uint8(5), uint8(3), uint8(0), uint8(100), 90.0, 0.02, 0.01, 0.3, 1.5, 85.0, 95.0, 105.0, 120.0)
	f.Add(uint8(1), uint8(3), uint8(1), uint8(8), uint8(33), 100.0, 0.03, 0.0, 0.2, 0.5, 95.0, 105.0, 0.0, 0.0)
	f.Add(uint8(3), uint8(3), uint8(0), uint8(2), uint8(63), 100.0, 0.03, 0.0, 0.25, 0.5, 90.0, 100.0, 110.0, 120.0)
	f.Add(uint8(3), uint8(15), uint8(5), uint8(3), uint8(63), 100.0, 0.03, 0.0, 0.25, 0.5, 90.0, 100.0, 85.0, 120.0)
	f.Add(uint8(3), uint8(15), uint8(1), uint8(0), uint8(63), 100.0, 0.03, 0.0, 0.25, 0.5, onLadder, 80.0, 95.0, 70.0)
	f.Add(uint8(3), uint8(15), uint8(5), uint8(1), uint8(63), 100.0, 0.03, 0.0, 0.25, 0.5, 1e4, 90.0, 80.0, 100.0)
	f.Add(uint8(46), uint8(0x84), uint8(0x0e), uint8(0x14), uint8(12), 20.0, -83.98, 51.40533333333334, 178.3, 433.83333333333337, 0.31746031746031744, 95.0, 165.0, 3808.0)
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
		for _, ke := range kernelEngines(e) {
			qp := ke.NewQuadPlan()
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
					t.Errorf("%s lane %d %+v: quad %v (%#x) != scalar %v (%#x), bound %d",
						kernelName(ke), i, o, got[i], math.Float64bits(got[i]), want, math.Float64bits(want), qp.hi)
				}
			}
		}
	})
}
