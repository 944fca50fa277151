package lattice

import (
	"math"
	"testing"
	"testing/quick"

	"binopt/internal/bs"
	"binopt/internal/hwmath"
	"binopt/internal/mathx"
	"binopt/internal/option"
)

func amPut() option.Option {
	return option.Option{
		Right:  option.Put,
		Style:  option.American,
		Spot:   100,
		Strike: 105,
		Rate:   0.03,
		Sigma:  0.2,
		T:      0.5,
	}
}

func mustEngine(t testing.TB, steps int) *Engine {
	t.Helper()
	e, err := NewEngine(steps)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineRejectsBadSteps(t *testing.T) {
	if _, err := NewEngine(0); err == nil {
		t.Error("NewEngine(0) should fail")
	}
	if _, err := NewEngine(-5); err == nil {
		t.Error("NewEngine(-5) should fail")
	}
}

func TestPriceValidatesOption(t *testing.T) {
	e := mustEngine(t, 16)
	bad := amPut()
	bad.Sigma = -1
	if _, err := e.Price(bad); err == nil {
		t.Error("invalid option should be rejected")
	}
}

func TestSingleStepTreeByHand(t *testing.T) {
	// One-step European call computed by hand: V = disc*(p*Vu + (1-p)*Vd).
	o := option.Option{
		Right: option.Call, Style: option.European,
		Spot: 100, Strike: 100, Rate: 0.05, Sigma: 0.2, T: 1,
	}
	lp, err := option.NewLatticeParams(o, 1, option.CRR)
	if err != nil {
		t.Fatal(err)
	}
	want := lp.Pu*math.Max(100*lp.U-100, 0) + lp.Pd*math.Max(100*lp.D-100, 0)

	e := mustEngine(t, 1)
	got, err := e.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(got, want, 1e-12, 1e-12) {
		t.Errorf("1-step price = %.15g, want %.15g", got, want)
	}
}

func TestEuropeanConvergesToBlackScholes(t *testing.T) {
	for _, right := range []option.Right{option.Call, option.Put} {
		o := amPut()
		o.Style = option.European
		o.Right = right
		ref, err := bs.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(1)
		for _, n := range []int{64, 256, 1024} {
			e := mustEngine(t, n)
			got, err := e.Price(o)
			if err != nil {
				t.Fatal(err)
			}
			errAbs := math.Abs(got - ref)
			// CRR error decays like O(1/N); allow slack for the payoff
			// kink oscillation.
			bound := 4.0 * o.Spot / float64(n)
			if errAbs > bound {
				t.Errorf("%v N=%d: |%.6f - %.6f| = %g > %g", right, n, got, ref, errAbs, bound)
			}
			if n >= 256 && errAbs > prev*4 {
				t.Errorf("%v N=%d: error %g not shrinking (prev %g)", right, n, errAbs, prev)
			}
			prev = errAbs
		}
	}
}

func TestAmericanCallNoDividendEqualsEuropean(t *testing.T) {
	// With no dividends, early exercise of a call is never optimal, so the
	// American and European prices coincide — a strong structural check of
	// the early-exercise logic.
	o := amPut()
	o.Right = option.Call
	e := mustEngine(t, 512)

	o.Style = option.American
	am, err := e.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Style = option.European
	eu, err := e.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(am, eu, 1e-12, 1e-12) {
		t.Errorf("american call %v != european call %v (q=0)", am, eu)
	}
}

func TestAmericanPutPremium(t *testing.T) {
	// American put must exceed the European put (early exercise has
	// positive value when r > 0) and dominate intrinsic.
	o := amPut()
	e := mustEngine(t, 512)
	am, err := e.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Style = option.European
	eu, err := e.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	if am <= eu {
		t.Errorf("american put %v should exceed european %v", am, eu)
	}
	if am < amPut().Intrinsic() {
		t.Errorf("american put %v below intrinsic %v", am, amPut().Intrinsic())
	}
}

func TestAmericanPutReferenceValue(t *testing.T) {
	// Literature benchmark (e.g. Hull): American put S=50 K=50 r=0.10
	// sigma=0.40 T=5/12 is worth about 4.28-4.29.
	o := option.Option{
		Right: option.Put, Style: option.American,
		Spot: 50, Strike: 50, Rate: 0.10, Sigma: 0.40, T: 5.0 / 12.0,
	}
	e := mustEngine(t, 2048)
	got, err := e.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4.283) > 0.01 {
		t.Errorf("american put = %v, want ~4.28", got)
	}
}

func TestDeepITMAmericanPutIsIntrinsic(t *testing.T) {
	// Very deep in the money with high rates: immediate exercise optimal,
	// value pinned at intrinsic.
	o := option.Option{
		Right: option.Put, Style: option.American,
		Spot: 10, Strike: 100, Rate: 0.10, Sigma: 0.2, T: 1,
	}
	e := mustEngine(t, 256)
	got, err := e.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(got, 90, 1e-9, 1e-12) {
		t.Errorf("deep ITM american put = %v, want 90 (intrinsic)", got)
	}
}

func TestMonotonicityProperties(t *testing.T) {
	e := mustEngine(t, 128)
	f := func(rawS, rawSig float64) bool {
		o := amPut()
		o.Spot = 50 + math.Abs(math.Mod(rawS, 100))
		o.Sigma = 0.1 + math.Abs(math.Mod(rawSig, 0.5))
		base, err := e.Price(o)
		if err != nil {
			return false
		}
		// Put value decreases in spot.
		up := o
		up.Spot *= 1.05
		vUp, err := e.Price(up)
		if err != nil {
			return false
		}
		if vUp > base+1e-9 {
			return false
		}
		// Value increases in volatility.
		hv := o
		hv.Sigma += 0.05
		vHv, err := e.Price(hv)
		if err != nil {
			return false
		}
		return vHv >= base-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPutCallParityOnTree(t *testing.T) {
	// European tree prices must satisfy parity to tree accuracy.
	o := amPut()
	o.Style = option.European
	e := mustEngine(t, 1024)
	put, err := e.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Right = option.Call
	call, err := e.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	lhs := call - put
	rhs := o.Spot - o.Strike*math.Exp(-o.Rate*o.T)
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Errorf("tree parity violated: C-P = %.12f, S-K*disc = %.12f", lhs, rhs)
	}
}

func TestParameterisationsAgree(t *testing.T) {
	// CRR, Jarrow-Rudd and Tian converge to the same value.
	o := amPut()
	var prices []float64
	for _, p := range []option.Parameterisation{option.CRR, option.JarrowRudd, option.Tian} {
		e := mustEngine(t, 2048).WithParameterisation(p)
		v, err := e.Price(o)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		prices = append(prices, v)
	}
	for i := 1; i < len(prices); i++ {
		if math.Abs(prices[i]-prices[0]) > 0.01 {
			t.Errorf("parameterisation %d price %v too far from CRR %v", i, prices[i], prices[0])
		}
	}
}

func TestSinglePrecisionErrorMagnitude(t *testing.T) {
	// The float32 engine should track the double engine to ~1e-3 at
	// N=1024 (Table II quotes ~1e-3 RMSE for single-precision builds) and
	// must not match it to double accuracy (that would mean the rounding
	// is not applied).
	o := amPut()
	ref := mustEngine(t, 1024)
	sgl := mustEngine(t, 1024).WithSinglePrecision()
	vr, err := ref.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := sgl.Price(o)
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(vr - vs)
	if diff == 0 {
		t.Error("single precision identical to double — rounding not applied")
	}
	if diff > 0.05 {
		t.Errorf("single precision error %g implausibly large", diff)
	}
}

func TestDeviceLeavesFlawedPowRMSE(t *testing.T) {
	// End-to-end reproduction of the paper's accuracy isolation: kernel
	// IV.B style device-side leaves through the flawed Power core must
	// give RMSE ~1e-3 against the reference, and the accurate core must
	// repair it (experiment E4).
	ref := mustEngine(t, 1024)
	flawed := mustEngine(t, 1024).WithDeviceLeaves(hwmath.Flawed13)
	fixed := mustEngine(t, 1024).WithDeviceLeaves(hwmath.Accurate13SP1)

	var refs, flawedVals, fixedVals []float64
	for i := 0; i < 40; i++ {
		o := amPut()
		o.Strike = 80 + float64(i)
		vr, err := ref.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		vf, err := flawed.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		vx, err := fixed.Price(o)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, vr)
		flawedVals = append(flawedVals, vf)
		fixedVals = append(fixedVals, vx)
	}
	rmseFlawed := mathx.RMSE(flawedVals, refs)
	rmseFixed := mathx.RMSE(fixedVals, refs)
	if om := mathx.OrderOfMagnitude(rmseFlawed); om < -5 || om > -2 {
		t.Errorf("flawed-pow RMSE = %g (order %d), paper reports ~1e-3", rmseFlawed, om)
	}
	if rmseFixed > 1e-9 {
		t.Errorf("accurate-pow RMSE = %g, should be ~machine precision", rmseFixed)
	}
}

func TestRetainLevels(t *testing.T) {
	e := mustEngine(t, 8)
	p, err := e.NewPlan(amPut())
	if err != nil {
		t.Fatal(err)
	}
	_, kept := p.ExecRetain(3)
	if len(kept) != 3 {
		t.Fatalf("kept %d levels", len(kept))
	}
	for tl, level := range kept {
		if len(level) != tl+1 {
			t.Errorf("level %d has %d nodes, want %d", tl, len(level), tl+1)
		}
	}
}

func TestPriceBoundsProperty(t *testing.T) {
	// Arbitrage bounds for random contracts: intrinsic <= american value;
	// put <= strike; call <= spot.
	e := mustEngine(t, 96)
	f := func(rawK, rawSig, rawT float64) bool {
		o := amPut()
		o.Strike = 50 + math.Abs(math.Mod(rawK, 150))
		o.Sigma = 0.05 + math.Abs(math.Mod(rawSig, 0.8))
		o.T = 0.1 + math.Abs(math.Mod(rawT, 2))
		put, err := e.Price(o)
		if err != nil {
			return true // infeasible parameterisations excluded elsewhere
		}
		if put < o.Intrinsic()-1e-9 || put > o.Strike+1e-9 {
			return false
		}
		o.Right = option.Call
		call, err := e.Price(o)
		if err != nil {
			return true
		}
		return call >= o.Intrinsic()-1e-9 && call <= o.Spot+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
