package lattice

import (
	"strings"
	"testing"

	"binopt/internal/hwmath"
	"binopt/internal/option"
)

// mixedBook builds a deterministic chain spanning rights × styles with
// varied strikes and vols, the shape book revaluation sees.
func mixedBook(n int) []option.Option {
	opts := make([]option.Option, n)
	for i := range opts {
		o := amPut()
		o.Strike = 85 + float64(i%40)
		o.Sigma = 0.12 + 0.002*float64(i%80)
		o.T = 0.25 + 0.05*float64(i%8)
		if i%2 == 1 {
			o.Right = option.Call
		}
		if i%3 == 2 {
			o.Style = option.European
		}
		opts[i] = o
	}
	return opts
}

// TestPriceAndGreeksBatchParity pins the batch path bit-identical to the
// per-option scalar PriceAndGreeks reference across rights, styles,
// parameterisations (exercising both theta branches), precisions and
// quad level kernels.
func TestPriceAndGreeksBatchParity(t *testing.T) {
	opts := mixedBook(37)
	engines := map[string]*Engine{
		"crr-double":   mustEngine(t, 96),
		"crr-single":   mustEngine(t, 96).WithSinglePrecision(),
		"jr-double":    mustEngine(t, 96).WithParameterisation(option.JarrowRudd),
		"tian-double":  mustEngine(t, 64).WithParameterisation(option.Tian),
		"crr-devleaf":  mustEngine(t, 64).WithDeviceLeaves(defaultPow(t)),
		"crr-double33": mustEngine(t, 33),
	}
	for cfg, e := range engines {
		for _, e := range kernelEngines(e) {
			name := cfg + "/" + kernelName(e)
			for _, workers := range []int{1, 4} {
				prices, greeks, err := e.PriceAndGreeksBatch(opts, workers)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				for i, o := range opts {
					refP, refG, err := e.PriceAndGreeks(o)
					if err != nil {
						t.Fatalf("%s reference %d: %v", name, i, err)
					}
					if prices[i] != refP {
						t.Fatalf("%s workers=%d option %d price: %v != %v", name, workers, i, prices[i], refP)
					}
					if greeks[i] != refG {
						t.Fatalf("%s workers=%d option %d greeks: %+v != %+v", name, workers, i, greeks[i], refG)
					}
				}
			}
		}
	}
}

func defaultPow(t *testing.T) hwmath.PowCore {
	t.Helper()
	return mustEngine(t, 2).pow
}

func TestPriceAndGreeksBatchEmpty(t *testing.T) {
	e := mustEngine(t, 16)
	prices, greeks, err := e.PriceAndGreeksBatch(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(prices) != 0 || len(greeks) != 0 {
		t.Errorf("got %d prices, %d greeks", len(prices), len(greeks))
	}
}

func TestPriceAndGreeksBatchNeedsTwoSteps(t *testing.T) {
	e := mustEngine(t, 1)
	if _, _, err := e.PriceAndGreeksBatch(mixedBook(2), 1); err == nil {
		t.Error("1-step engine should refuse greeks")
	}
}

// TestPriceAndGreeksBatchErrorIdentity pins that the error names the
// failing contract itself, not just its index.
func TestPriceAndGreeksBatchErrorIdentity(t *testing.T) {
	e := mustEngine(t, 16)
	opts := mixedBook(9)
	opts[5].Sigma = -0.5
	_, _, err := e.PriceAndGreeksBatch(opts, 2)
	if err == nil {
		t.Fatal("invalid option should surface an error")
	}
	if !strings.Contains(err.Error(), "option 5") {
		t.Errorf("error should name the index: %v", err)
	}
	if !strings.Contains(err.Error(), opts[5].String()) {
		t.Errorf("error should carry the contract identity %q: %v", opts[5].String(), err)
	}
}

// TestPriceAndGreeksBatchStopsDispatch pins the early-stop regression:
// once an error is recorded, workers drain the remaining options without
// evaluating them.
func TestPriceAndGreeksBatchStopsDispatch(t *testing.T) {
	e := mustEngine(t, 256)
	opts := mixedBook(64)
	opts[0].Sigma = -1 // fails at plan time, before any sweep
	_, _, evaluated, err := e.priceAndGreeksBatch(opts, 1)
	if err == nil {
		t.Fatal("expected an error")
	}
	if evaluated >= int64(len(opts)) {
		t.Errorf("dispatcher kept feeding a doomed batch: evaluated %d of %d", evaluated, len(opts))
	}
}
