package lattice_test

import (
	"testing"

	"binopt/internal/lattice"
	"binopt/internal/workload"
)

// BenchmarkQuadPutChain1024 is the kernel the paper's use case is bound
// by: a 64-put American volatility-curve chunk (moneyness 0.7–1.3 on the
// default smile) through PriceBatch on one worker at 1024 steps. Its
// options/s over the scalar cold path (BenchmarkPriceAmericanPut1024 in
// internal/serve) is the single-core quad speedup scripts/coldpath_smoke.sh
// gates on.
func BenchmarkQuadPutChain1024(b *testing.B) {
	eng, err := lattice.NewEngine(1024)
	if err != nil {
		b.Fatal(err)
	}
	benchPutChain(b, eng, lattice.QuadKernel())
}

// BenchmarkQuadPutChain1024Portable is BenchmarkQuadPutChain1024 on the
// portable Go level kernels. Where lattice.QuadKernel is "avx2", the
// same-run ratio of the two is the AVX2 kernels' speedup that
// scripts/coldpath_smoke.sh gates on.
func BenchmarkQuadPutChain1024Portable(b *testing.B) {
	eng, err := lattice.NewEngine(1024)
	if err != nil {
		b.Fatal(err)
	}
	benchPutChain(b, eng.WithPortableKernels(), "portable")
}

// benchPutChain runs the chain on eng and logs the name of the quad
// kernels eng runs; benchmark logs print without -v, so scripts can
// read it.
func benchPutChain(b *testing.B, eng *lattice.Engine, kernel string) {
	b.Logf("quad kernel: %s", kernel)
	spec := workload.DefaultVolCurveSpec(7)
	spec.N = 64
	chain, err := workload.Chain(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.PriceBatch(chain, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(chain))/b.Elapsed().Seconds(), "options/s")
}
