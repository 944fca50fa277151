//go:build amd64

package lattice

// hasAVX2 reports whether this process may run the AVX2 quad kernels:
// the CPU has AVX2 and the OS saves YMM state across context switches.
// Detected once; NewQuadPlan records it per plan.
var hasAVX2 = detectAVX2()

// cpuid and xgetbv (quad_amd64.s) execute the instructions of the same
// name; xgetbv reads XCR0.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX, XGETBV usable
		avx      = 1 << 28 // CPUID.1:ECX
		avx2     = 1 << 5  // CPUID.(7,0):EBX
		ymmState = 0b110   // XCR0: SSE and AVX state enabled by the OS
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmState != ymmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// The AVX2 level kernels (quad_amd64.s) read the plan's coefficients and
// buffers directly and trust their bounds; levelAVX2 checks the spans
// first, so a bad bound panics in Go instead of writing past a buffer.

//go:noescape
func runDoubleAVX2(q *QuadPlan, cols int)

//go:noescape
func runSingleAVX2(q *QuadPlan, cols int)

//go:noescape
func contDoubleAVX2(q *QuadPlan, lo, hi int)

//go:noescape
func contSingleAVX2(q *QuadPlan, lo, hi int)

// levelAVX2 runs one level's two column runs, [0, ex) in full and
// [ex, cols) continuation-only, on the AVX2 kernels. It first
// bounds-checks both spans: the full run reads and writes ladder
// columns [0, ex) and steps columns [0, ex], the top one being the
// up-neighbour; the continuation steps columns [ex, cols].
//
//binopt:kernel quad interleaved level reduction (AVX2)
func (q *QuadPlan) levelAVX2(ex, cols int) {
	if ex > 0 {
		_ = q.ladder[ex*4-1]
		_ = q.steps[ex*4+3]
	}
	if ex < cols {
		_ = q.steps[ex*4]
		_ = q.steps[cols*4+3]
	}
	if q.eng.single {
		runSingleAVX2(q, ex)
		contSingleAVX2(q, ex, cols)
	} else {
		runDoubleAVX2(q, ex)
		contDoubleAVX2(q, ex, cols)
	}
}
