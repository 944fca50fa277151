package lattice

// WithPortableKernels returns a copy of e whose quad plans run the
// portable Go level kernels even where the host has AVX2, so tests and
// benchmarks can run both kernel sets side by side.
func (e *Engine) WithPortableKernels() *Engine {
	c := *e
	c.portable = true
	return &c
}
