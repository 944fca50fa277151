package opencl

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Buffer is a global-memory object. Values are held as float64 words; the
// element size only affects the byte accounting, so a single-precision
// kernel build declares 4-byte elements and the traffic meters shrink
// accordingly (exactly the effect single precision has on a real board's
// bandwidth needs).
//
// Words are stored as their IEEE-754 bits and work-items access them
// atomically, as aligned words of real device memory are: a kernel whose
// work-items collide on an element (the hazard the checker reports)
// reads or leaves one of the written values, and the simulation itself
// is free of Go data races.
type Buffer struct {
	ctx       *Context
	name      string
	data      []uint64
	elemBytes int64
	released  bool
}

// CreateBuffer allocates a global buffer of n elements on the context's
// device. elemBytes must be 4 or 8.
func (c *Context) CreateBuffer(name string, n int, elemBytes int) (*Buffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("opencl: buffer %q needs a positive size, got %d", name, n)
	}
	if elemBytes != 4 && elemBytes != 8 {
		return nil, fmt.Errorf("opencl: buffer %q element size must be 4 or 8 bytes, got %d", name, elemBytes)
	}
	bytes := int64(n) * int64(elemBytes)
	if err := c.device.reserve(bytes); err != nil {
		return nil, err
	}
	return &Buffer{
		ctx:       c,
		name:      name,
		data:      make([]uint64, n),
		elemBytes: int64(elemBytes),
	}, nil
}

// Release returns the buffer's memory to the device. Releasing twice is
// an error, as it is in OpenCL.
func (b *Buffer) Release() error {
	if b.released {
		return fmt.Errorf("opencl: buffer %q released twice", b.name)
	}
	b.released = true
	b.ctx.device.release(b.Bytes())
	return nil
}

// Len returns the element count.
func (b *Buffer) Len() int { return len(b.data) }

// Bytes returns the buffer size in bytes.
func (b *Buffer) Bytes() int64 { return int64(len(b.data)) * b.elemBytes }

// ElemBytes returns the element size used for traffic accounting.
func (b *Buffer) ElemBytes() int64 { return b.elemBytes }

// Name returns the diagnostic name given at creation.
func (b *Buffer) Name() string { return b.name }

// at reads an element with bounds checking; kernels reach it through
// WorkItem.Load so the access is metered.
func (b *Buffer) at(i int) float64 {
	if i < 0 || i >= len(b.data) {
		panic(fmt.Errorf("opencl: buffer %q read out of range: %d of %d", b.name, i, len(b.data)))
	}
	return math.Float64frombits(atomic.LoadUint64(&b.data[i]))
}

// set writes an element with bounds checking; kernels reach it through
// WorkItem.Store.
func (b *Buffer) set(i int, v float64) {
	if i < 0 || i >= len(b.data) {
		panic(fmt.Errorf("opencl: buffer %q write out of range: %d of %d", b.name, i, len(b.data)))
	}
	atomic.StoreUint64(&b.data[i], math.Float64bits(v))
}
