package lattice

import (
	"fmt"
	"math"

	"binopt/internal/option"
)

// QuadPlan prices up to four options through one shared backward sweep,
// mirroring the stepsArray layout of the paper's exemplar kernels: the
// four lanes are interleaved in one flat [(n+1)*4]float64 buffer
// (cl_float4 quads), so every node visit touches four contiguous values
// and amortises the sweep's loop and memory traffic across four
// contracts. Each lane runs exactly the scalar reference's operation
// sequence in the engine's working precision, so the quad results are
// bit-identical to Plan.Exec — the parity sweep in quad_test.go pins
// that across rights, styles, depths, precisions and leaf modes.
//
// A QuadPlan is single-shot scratch: Load derives the four lanes
// straight into the working buffers, Exec consumes them. Reload before
// executing again. Not safe for concurrent use; the batch pricer keeps
// one per worker.
type QuadPlan struct {
	eng   *Engine
	n     int
	lanes int // active lanes (1..4); unused lanes mirror lane 0

	// Per-lane coefficients in working precision.
	pu, pd, invD, strike [4]float64
	american, isCall     [4]bool

	// steps is the interleaved option-value buffer (the stepsArray);
	// ladder the interleaved asset-price ladder the early-exercise
	// comparisons read.
	steps  []float64
	ladder []float64

	// hi bounds the columns the sweep visits: every node at or above it
	// is an exact +0 in every loaded lane (the zero cone, see coneStart).
	hi int
	// ex bounds the columns whose early-exercise test can still fire in
	// some lane at the first level (see exerciseStart); the sweep runs
	// the columns from it up to hi continuation-only and lowers it as
	// columns retire. retire is false when some lane (an American call,
	// or an American put with invD < 1) rules retirement out.
	ex     int
	retire bool

	// avx2 selects the AVX2 level kernels (quad_amd64.s), which hold
	// each node's four lanes in one YMM register; otherwise the portable
	// Go kernels below run. NewQuadPlan sets it where the host has AVX2.
	avx2 bool
}

// NewQuadPlan allocates quad scratch for the engine's depth.
func (e *Engine) NewQuadPlan() *QuadPlan {
	n := e.steps
	return &QuadPlan{
		eng:    e,
		n:      n,
		steps:  make([]float64, (n+1)*4),
		ladder: make([]float64, (n+1)*4),
		avx2:   hasAVX2 && !e.portable,
	}
}

// QuadKernel names the level kernels this process's quad plans run:
// "avx2" where the CPU and OS support AVX2, else "portable". Throughput
// figures should be read against it.
func QuadKernel() string {
	if hasAVX2 {
		return "avx2"
	}
	return "portable"
}

// Load plans 1–4 contracts into the four lanes. On error it names the
// failing position within opts.
func (q *QuadPlan) Load(opts []option.Option) error {
	lane, err := q.load(opts)
	if err != nil {
		return fmt.Errorf("lattice: quad lane %d: %w", lane, err)
	}
	return nil
}

// load is Load returning the failing lane index for callers that need to
// map it back onto a batch position.
func (q *QuadPlan) load(opts []option.Option) (int, error) {
	if len(opts) == 0 || len(opts) > 4 {
		return 0, fmt.Errorf("lattice: quad plan needs 1..4 options, got %d", len(opts))
	}
	e := q.eng
	rnd := rounder(e.single)
	n := q.n
	q.hi, q.ex, q.retire = 0, 0, true
	for i, o := range opts {
		lp, err := option.NewLatticeParams(o, n, e.param)
		if err != nil {
			return i, err
		}
		d := rnd(lp.D)
		q.pu[i], q.pd[i] = rnd(lp.Pu), rnd(lp.Pd)
		q.invD[i] = rnd(1 / d)
		q.strike[i] = rnd(o.Strike)
		q.american[i] = o.Style == option.American
		q.isCall[i] = o.Right == option.Call
		switch e.leaf {
		case LeafDevicePow:
			deviceLeafFill(q.ladder, 4, i, o.Spot, lp, e.pow, e.single)
		default:
			hostLeafFill(q.ladder, 4, i, o.Spot, lp, e.param, e.single)
		}
		for k := 0; k <= n; k++ {
			q.steps[k*4+i] = rnd(payoff(o.Right, q.ladder[k*4+i], q.strike[i]))
		}
		q.hi = max(q.hi, q.coneStart(i))
		if q.american[i] {
			if q.isCall[i] || !(q.invD[i] >= 1) {
				q.retire = false
			} else {
				q.ex = max(q.ex, q.exerciseStart(i))
			}
		}
	}
	if !q.retire {
		q.ex = n + 1
	}
	q.lanes = len(opts)
	// Unused lanes mirror lane 0 so the sweep stays branch-free over a
	// full quad; their results are discarded.
	for i := q.lanes; i < 4; i++ {
		q.pu[i], q.pd[i] = q.pu[0], q.pd[0]
		q.invD[i], q.strike[i] = q.invD[0], q.strike[0]
		q.american[i], q.isCall[i] = q.american[0], q.isCall[0]
		for k := 0; k <= n; k++ {
			q.ladder[k*4+i] = q.ladder[k*4]
			q.steps[k*4+i] = q.steps[k*4]
		}
	}
	return 0, nil
}

// coneStart returns the first column of lane i's zero cone — the column
// at and above which every leaf payoff is exactly +0 — or n+1 when the
// lane cannot be trimmed. Every node of the cone equals +0 in the scalar
// reference too, so the sweep may skip it:
//
//   - A node whose children are both +0 has continuation
//     rnd(pu·0)+rnd(pd·0) = +0, given finite pu and pd.
//   - For an American put the early-exercise test cannot fire there. The
//     node's asset price is a chain of rnd(x·invD) steps from leaf k, so
//     with invD ≥ 1 it stays ≥ leaf_k ≥ K (the leaf's payoff is +0), and
//     the moneyness K−s ≤ 0 never beats the continuation +0.
//
// The skipped nodes' stale ladder values are never read, and the one
// stale value that is — column hi, the up-neighbour of column hi−1 — still
// holds its leaf payoff, +0. The bound is read from the loaded payoff
// table itself, so neither leaf monotonicity nor the leaf mode matters.
// Calls keep the full range, as does an American put whose rounded invD
// is below 1 (possible outside CRR, where d > 1 can occur).
func (q *QuadPlan) coneStart(i int) int {
	finite := math.Abs(q.pu[i]) <= math.MaxFloat64 && math.Abs(q.pd[i]) <= math.MaxFloat64
	if q.isCall[i] || !finite || (q.american[i] && !(q.invD[i] >= 1)) {
		return q.n + 1
	}
	k := q.n
	for k >= 0 && math.Float64bits(q.steps[k*4+i]) == 0 {
		k--
	}
	return k + 1
}

// exerciseStart returns one past lane i's highest leaf column whose
// asset price is not at or above the strike: an American put cannot
// exercise in the columns from it up, and given invD ≥ 1 it never can
// at any earlier level (see level). A NaN ladder value keeps its column.
func (q *QuadPlan) exerciseStart(i int) int {
	k := q.n
	for k >= 0 && q.ladder[k*4+i] >= q.strike[i] {
		k--
	}
	return k + 1
}

// Exec runs the interleaved sweep and returns the four lane values
// (entries past the loaded lane count mirror lane 0).
func (q *QuadPlan) Exec() [4]float64 {
	ex := q.ex
	for t := q.n - 1; t >= 0; t-- {
		ex = q.level(t, ex)
	}
	var out [4]float64
	copy(out[:], q.steps[:4])
	return out
}

// level reduces time level t in the working precision and returns the
// exercise-live bound for level t−1. The level's columns [0, t] are cut
// at the zero-cone bound hi; of those, [0, ex) run the full node update
// and [ex, cols) the continuation alone, reading and writing no ladder.
//
// Retiring a column is exact. With invD ≥ 1, rnd(s·invD) ≥ s for s ≥ 0
// in either precision (rounding is monotone and s is representable), so
// a put column whose ladder is ≥ K keeps a ladder ≥ K at every earlier
// level. Its moneyness rnd(K−s) is then ≤ 0, the continuation is ≥ 0 or
// NaN, and the early-exercise test never fires again. Column k's ladder
// slot is read by column k alone, so a retired column's stale ladder is
// never read; European lanes never read the ladder at all. The
// continuation arithmetic is the full update's, so every node still
// equals the scalar reference bit for bit. The bound only shrinks by
// testing its top column right after that column's ladder was updated,
// so it is exact whether or not the leaves are monotone.
//
//binopt:kernel quad interleaved backward sweep, one level
func (q *QuadPlan) level(t, ex int) int {
	cols := min(t+1, q.hi)
	ex = min(ex, cols)
	switch {
	case q.avx2:
		q.levelAVX2(ex, cols)
	case q.eng.single:
		q.runSingle(ex)
		q.contSingle(ex, cols)
	default:
		q.runDouble(ex)
		q.contDouble(ex, cols)
	}
	for ex > 0 && q.dead(ex-1) {
		ex--
	}
	return ex
}

// dead reports whether column k's early-exercise test can no longer
// fire in any lane: retirement is allowed and every American lane (all
// puts then) has a ladder at or above its strike.
func (q *QuadPlan) dead(k int) bool {
	if !q.retire {
		return false
	}
	for i := 0; i < 4; i++ {
		if q.american[i] && !(q.ladder[k*4+i] >= q.strike[i]) {
			return false
		}
	}
	return true
}

// runDouble reduces the columns [0, cols) of one level, each column's
// up-neighbour sitting four slots ahead in the steps buffer. The four
// lanes are unrolled with constant indices so the compiler eliminates
// the bounds checks and pins the per-lane coefficients in registers.
//
// The explicit float64 conversions around the products pin the
// two-rounding arithmetic of the scalar reference: the Go spec licenses
// fusing a multiply-add into one rounding unless an explicit conversion
// separates them, and a fused lane would break bit parity exactly the
// way a device-side FMA contraction would. The early-exercise test
// compares the raw moneyness against the continuation directly; this is
// bit-identical to the reference's max(moneyness, 0) comparison because
// node values are never negative (NewLatticeParams rejects
// probabilities outside (0,1), so both discounted weights are positive
// and every value is a non-negative combination of non-negative
// payoffs).
//
//binopt:kernel quad interleaved level reduction (double precision)
func (q *QuadPlan) runDouble(cols int) {
	v, lad := q.steps, q.ladder
	pu0, pu1, pu2, pu3 := q.pu[0], q.pu[1], q.pu[2], q.pu[3]
	pd0, pd1, pd2, pd3 := q.pd[0], q.pd[1], q.pd[2], q.pd[3]
	iv0, iv1, iv2, iv3 := q.invD[0], q.invD[1], q.invD[2], q.invD[3]
	sk0, sk1, sk2, sk3 := q.strike[0], q.strike[1], q.strike[2], q.strike[3]
	am0, am1, am2, am3 := q.american[0], q.american[1], q.american[2], q.american[3]
	cl0, cl1, cl2, cl3 := q.isCall[0], q.isCall[1], q.isCall[2], q.isCall[3]
	for k := 0; k < cols; k++ {
		b := k * 4
		row := v[b : b+8 : b+8]
		sl := lad[b : b+4 : b+4]

		s0 := sl[0] * iv0
		sl[0] = s0
		c0 := float64(pu0*row[4]) + float64(pd0*row[0])
		if am0 {
			var dd float64
			if cl0 {
				dd = s0 - sk0
			} else {
				dd = sk0 - s0
			}
			if dd > c0 {
				c0 = dd
			}
		}
		row[0] = c0

		s1 := sl[1] * iv1
		sl[1] = s1
		c1 := float64(pu1*row[5]) + float64(pd1*row[1])
		if am1 {
			var dd float64
			if cl1 {
				dd = s1 - sk1
			} else {
				dd = sk1 - s1
			}
			if dd > c1 {
				c1 = dd
			}
		}
		row[1] = c1

		s2 := sl[2] * iv2
		sl[2] = s2
		c2 := float64(pu2*row[6]) + float64(pd2*row[2])
		if am2 {
			var dd float64
			if cl2 {
				dd = s2 - sk2
			} else {
				dd = sk2 - s2
			}
			if dd > c2 {
				c2 = dd
			}
		}
		row[2] = c2

		s3 := sl[3] * iv3
		sl[3] = s3
		c3 := float64(pu3*row[7]) + float64(pd3*row[3])
		if am3 {
			var dd float64
			if cl3 {
				dd = s3 - sk3
			} else {
				dd = sk3 - s3
			}
			if dd > c3 {
				c3 = dd
			}
		}
		row[3] = c3
	}
}

// runSingle is runDouble with every operation rounded through float32
// at exactly the points the scalar reference's rounder does — including
// the moneyness, which the reference rounds before its comparison.
//
//binopt:kernel quad interleaved level reduction (single precision)
func (q *QuadPlan) runSingle(cols int) {
	v, lad := q.steps, q.ladder
	pu0, pu1, pu2, pu3 := q.pu[0], q.pu[1], q.pu[2], q.pu[3]
	pd0, pd1, pd2, pd3 := q.pd[0], q.pd[1], q.pd[2], q.pd[3]
	iv0, iv1, iv2, iv3 := q.invD[0], q.invD[1], q.invD[2], q.invD[3]
	sk0, sk1, sk2, sk3 := q.strike[0], q.strike[1], q.strike[2], q.strike[3]
	am0, am1, am2, am3 := q.american[0], q.american[1], q.american[2], q.american[3]
	cl0, cl1, cl2, cl3 := q.isCall[0], q.isCall[1], q.isCall[2], q.isCall[3]
	for k := 0; k < cols; k++ {
		b := k * 4
		row := v[b : b+8 : b+8]
		sl := lad[b : b+4 : b+4]

		s0 := float64(float32(sl[0] * iv0))
		sl[0] = s0
		u0 := float64(float32(pu0 * row[4]))
		d0 := float64(float32(pd0 * row[0]))
		c0 := float64(float32(u0 + d0))
		if am0 {
			var dd float64
			if cl0 {
				dd = float64(float32(s0 - sk0))
			} else {
				dd = float64(float32(sk0 - s0))
			}
			if dd > c0 {
				c0 = dd
			}
		}
		row[0] = c0

		s1 := float64(float32(sl[1] * iv1))
		sl[1] = s1
		u1 := float64(float32(pu1 * row[5]))
		d1 := float64(float32(pd1 * row[1]))
		c1 := float64(float32(u1 + d1))
		if am1 {
			var dd float64
			if cl1 {
				dd = float64(float32(s1 - sk1))
			} else {
				dd = float64(float32(sk1 - s1))
			}
			if dd > c1 {
				c1 = dd
			}
		}
		row[1] = c1

		s2 := float64(float32(sl[2] * iv2))
		sl[2] = s2
		u2 := float64(float32(pu2 * row[6]))
		d2 := float64(float32(pd2 * row[2]))
		c2 := float64(float32(u2 + d2))
		if am2 {
			var dd float64
			if cl2 {
				dd = float64(float32(s2 - sk2))
			} else {
				dd = float64(float32(sk2 - s2))
			}
			if dd > c2 {
				c2 = dd
			}
		}
		row[2] = c2

		s3 := float64(float32(sl[3] * iv3))
		sl[3] = s3
		u3 := float64(float32(pu3 * row[7]))
		d3 := float64(float32(pd3 * row[3]))
		c3 := float64(float32(u3 + d3))
		if am3 {
			var dd float64
			if cl3 {
				dd = float64(float32(s3 - sk3))
			} else {
				dd = float64(float32(sk3 - s3))
			}
			if dd > c3 {
				c3 = dd
			}
		}
		row[3] = c3
	}
}

// contDouble is runDouble's continuation alone over the columns
// [lo, hi), for columns where no lane can exercise early: no ladder
// read, multiply or store, and no moneyness test.
//
//binopt:kernel quad interleaved continuation-only reduction (double precision)
func (q *QuadPlan) contDouble(lo, hi int) {
	v := q.steps
	pu0, pu1, pu2, pu3 := q.pu[0], q.pu[1], q.pu[2], q.pu[3]
	pd0, pd1, pd2, pd3 := q.pd[0], q.pd[1], q.pd[2], q.pd[3]
	for k := lo; k < hi; k++ {
		b := k * 4
		row := v[b : b+8 : b+8]
		row[0] = float64(pu0*row[4]) + float64(pd0*row[0])
		row[1] = float64(pu1*row[5]) + float64(pd1*row[1])
		row[2] = float64(pu2*row[6]) + float64(pd2*row[2])
		row[3] = float64(pu3*row[7]) + float64(pd3*row[3])
	}
}

// contSingle is contDouble rounded through float32 at runSingle's
// continuation points.
//
//binopt:kernel quad interleaved continuation-only reduction (single precision)
func (q *QuadPlan) contSingle(lo, hi int) {
	v := q.steps
	pu0, pu1, pu2, pu3 := q.pu[0], q.pu[1], q.pu[2], q.pu[3]
	pd0, pd1, pd2, pd3 := q.pd[0], q.pd[1], q.pd[2], q.pd[3]
	for k := lo; k < hi; k++ {
		b := k * 4
		row := v[b : b+8 : b+8]
		row[0] = float64(float32(float64(float32(pu0*row[4])) + float64(float32(pd0*row[0]))))
		row[1] = float64(float32(float64(float32(pu1*row[5])) + float64(float32(pd1*row[1]))))
		row[2] = float64(float32(float64(float32(pu2*row[6])) + float64(float32(pd2*row[2]))))
		row[3] = float64(float32(float64(float32(pu3*row[7])) + float64(float32(pd3*row[3]))))
	}
}
