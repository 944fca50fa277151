// Package lattice implements binomial-tree option pricing by backward
// induction — the algorithm both OpenCL kernels in the paper accelerate —
// in three arithmetic flavours: the double-precision software reference
// (the paper's single-core C program), a single-precision variant, and a
// double-precision variant whose device-side leaf initialisation goes
// through an emulated FPGA Power operator (the source of the published
// RMSE ~1e-3).
package lattice

import (
	"fmt"
	"math"

	"binopt/internal/hwmath"
	"binopt/internal/option"
)

// LeafInit selects where and how the tree leaves S(T,k) are produced,
// mirroring the paper's two kernel designs.
type LeafInit int

const (
	// LeafHost computes the leaves on the host with full-precision
	// iterated multiplication — kernel IV.A's approach ("the tree leaves
	// are computed by the host and then transferred to the device").
	LeafHost LeafInit = iota
	// LeafDevicePow computes each leaf on the device as
	// S0 * u^k * d^(N-k) through the engine's Power core — kernel IV.B's
	// approach ("the tree leaves are initialized in the device, a
	// work-item for each tree leaf").
	LeafDevicePow
)

// Engine prices options on a recombining binomial lattice. The zero value
// is not usable; construct with NewEngine.
type Engine struct {
	steps  int
	param  option.Parameterisation
	single bool
	leaf   LeafInit
	pow    hwmath.PowCore

	// portable makes the engine's quad plans run the portable Go level
	// kernels even where the host has AVX2, so tests and benchmarks can
	// compare the two.
	portable bool
}

// NewEngine returns a double-precision reference engine with host-side
// leaves — the configuration of the paper's reference software.
func NewEngine(steps int) (*Engine, error) {
	if steps < 1 {
		return nil, fmt.Errorf("lattice: need at least 1 step, got %d", steps)
	}
	return &Engine{
		steps: steps,
		param: option.CRR,
		leaf:  LeafHost,
		pow:   hwmath.Accurate13SP1,
	}, nil
}

// WithParameterisation switches the lattice parameterisation (CRR by
// default).
func (e *Engine) WithParameterisation(p option.Parameterisation) *Engine {
	c := *e
	c.param = p
	return &c
}

// WithSinglePrecision makes every arithmetic operation round to float32,
// modelling the single-precision kernel builds in Table II.
func (e *Engine) WithSinglePrecision() *Engine {
	c := *e
	c.single = true
	return &c
}

// WithDeviceLeaves makes the engine initialise leaves through the given
// Power core, as kernel IV.B does on the FPGA.
func (e *Engine) WithDeviceLeaves(pow hwmath.PowCore) *Engine {
	c := *e
	c.leaf = LeafDevicePow
	c.pow = pow
	return &c
}

// Steps returns the number of time discretisation steps N.
func (e *Engine) Steps() int { return e.steps }

// Price returns the lattice value of the option. One-shot callers pay a
// plan allocation per call; batch and Greeks paths hold a Plan and reuse
// it.
func (e *Engine) Price(o option.Option) (float64, error) {
	p, err := e.NewPlan(o)
	if err != nil {
		return 0, err
	}
	return p.Exec(), nil
}

// payoff is the exercise value in the engine's working precision; the
// caller pre-rounds s and k.
func payoff(r option.Right, s, k float64) float64 {
	if r == option.Call {
		return math.Max(s-k, 0)
	}
	return math.Max(k-s, 0)
}
