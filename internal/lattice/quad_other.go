//go:build !amd64

package lattice

// hasAVX2 is false off amd64: every plan runs the portable kernels.
const hasAVX2 = false

// levelAVX2 is unreachable off amd64, where no plan selects it.
func (q *QuadPlan) levelAVX2(ex, cols int) {
	panic("lattice: AVX2 quad kernels are amd64-only")
}
