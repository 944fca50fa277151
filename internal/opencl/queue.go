package opencl

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// DefaultEventCapacity bounds the per-queue event ring. A long-running
// server enqueues commands forever; the ring keeps the recent window
// for inspection while Counters stay exact over the queue's whole life.
const DefaultEventCapacity = 4096

// Event records what one enqueued command did: the meters the
// performance models consume plus the four profiling timestamps of
// clGetEventProfilingInfo. This runtime executes commands synchronously
// at enqueue, so Queued == Submit and the queued→start gap is the
// host-side validation cost; the modelled device-clock timeline is
// derived separately, from the perf estimates (internal/accel).
type Event struct {
	Command string
	Stats   Counters
	// Queued is CL_PROFILING_COMMAND_QUEUED: the host enqueued the
	// command. Submit is CL_PROFILING_COMMAND_SUBMIT (same instant on
	// this synchronous runtime). Start and End bracket execution.
	Queued, Submit, Start, End time.Time
}

// Duration is the command's host execution time (start to end).
func (e Event) Duration() time.Duration { return e.End.Sub(e.Start) }

// CommandQueue executes commands against one device, in order (the paper
// uses in-order queues; the host overlaps work by splitting commands
// across queue batches, which internal/kernels reproduces at the host
// driver level).
type CommandQueue struct {
	ctx *Context

	mu      sync.Mutex
	total   Counters
	events  []Event // bounded ring, evCap slots
	evNext  int
	evFull  bool
	evDrop  int64
	evCap   int
	hook    func(Event)
	hazards bool
}

// NewQueue creates a command queue on the context.
func (c *Context) NewQueue() *CommandQueue {
	return &CommandQueue{ctx: c, evCap: DefaultEventCapacity}
}

// Counters returns the accumulated meters of all commands executed so
// far.
func (q *CommandQueue) Counters() Counters {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// Events returns the retained per-command events, oldest first. At most
// the ring capacity of recent events is kept; DroppedEvents counts the
// rest.
func (q *CommandQueue) Events() []Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.evFull {
		out := make([]Event, q.evNext)
		copy(out, q.events[:q.evNext])
		return out
	}
	out := make([]Event, 0, q.evCap)
	out = append(out, q.events[q.evNext:]...)
	out = append(out, q.events[:q.evNext]...)
	return out
}

// DroppedEvents reports how many events were evicted from the ring to
// make room for newer ones.
func (q *CommandQueue) DroppedEvents() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.evDrop
}

// SetEventCapacity resizes the event ring (minimum 1), discarding the
// retained events.
func (q *CommandQueue) SetEventCapacity(n int) {
	if n < 1 {
		n = 1
	}
	q.mu.Lock()
	q.evCap = n
	q.events = nil
	q.evNext = 0
	q.evFull = false
	q.mu.Unlock()
}

// SetEventHook installs fn to be called with every recorded event,
// after the command completes and outside the queue lock — the
// profiling-callback analogue the telemetry layer subscribes to. Pass
// nil to remove.
func (q *CommandQueue) SetEventHook(fn func(Event)) {
	q.mu.Lock()
	q.hook = fn
	q.mu.Unlock()
}

// ResetCounters clears the accumulated meters (the events are kept).
func (q *CommandQueue) ResetCounters() {
	q.mu.Lock()
	q.total = Counters{}
	q.mu.Unlock()
}

func (q *CommandQueue) record(cmd string, st Counters, queued, start time.Time) Event {
	ev := Event{Command: cmd, Stats: st, Queued: queued, Submit: queued, Start: start, End: time.Now()}
	q.mu.Lock()
	q.total.Add(st)
	if q.events == nil {
		q.events = make([]Event, q.evCap)
	}
	if q.evFull {
		q.evDrop++
	}
	q.events[q.evNext] = ev
	q.evNext++
	if q.evNext == q.evCap {
		q.evNext = 0
		q.evFull = true
	}
	hook := q.hook
	q.mu.Unlock()
	if hook != nil {
		hook(ev)
	}
	return ev
}

// EnqueueWriteBuffer copies host data into a buffer
// (clEnqueueWriteBuffer). The length of data must not exceed the buffer.
func (q *CommandQueue) EnqueueWriteBuffer(b *Buffer, offset int, data []float64) (Event, error) {
	queued := time.Now()
	if offset < 0 || offset+len(data) > b.Len() {
		return Event{}, fmt.Errorf("opencl: write to %q out of range: [%d, %d) of %d",
			b.name, offset, offset+len(data), b.Len())
	}
	start := time.Now()
	for i, v := range data {
		b.data[offset+i] = math.Float64bits(v)
	}
	st := Counters{HostWrites: int64(len(data)) * b.elemBytes, HostTransfers: 1}
	return q.record("write "+b.name, st, queued, start), nil
}

// EnqueueReadBuffer copies a buffer range back to the host
// (clEnqueueReadBuffer).
func (q *CommandQueue) EnqueueReadBuffer(b *Buffer, offset int, out []float64) (Event, error) {
	queued := time.Now()
	if offset < 0 || offset+len(out) > b.Len() {
		return Event{}, fmt.Errorf("opencl: read from %q out of range: [%d, %d) of %d",
			b.name, offset, offset+len(out), b.Len())
	}
	start := time.Now()
	for i := range out {
		out[i] = math.Float64frombits(b.data[offset+i])
	}
	st := Counters{HostReads: int64(len(out)) * b.elemBytes, HostTransfers: 1}
	return q.record("read "+b.name, st, queued, start), nil
}

// EnqueueNDRange executes a 1-D NDRange of the kernel
// (clEnqueueNDRangeKernel). globalSize must be a positive multiple of
// localSize, the OpenCL 1.x rule the paper's work-item indexing
// discussion revolves around. Work-groups execute concurrently; inside a
// group, execution is sequential unless the kernel declares barriers, in
// which case every work-item runs on its own goroutine and Barrier
// rendezvouses them.
func (q *CommandQueue) EnqueueNDRange(k *Kernel, globalSize, localSize int) (Event, error) {
	queued := time.Now()
	if globalSize <= 0 || localSize <= 0 {
		return Event{}, fmt.Errorf("opencl: kernel %q: sizes must be positive (global=%d local=%d)",
			k.Name, globalSize, localSize)
	}
	if globalSize%localSize != 0 {
		return Event{}, fmt.Errorf("opencl: kernel %q: global size %d not a multiple of local size %d",
			k.Name, globalSize, localSize)
	}
	if max := q.ctx.device.Info.MaxWorkGroupSize; max > 0 && localSize > max {
		return Event{}, fmt.Errorf("opencl: kernel %q: local size %d exceeds device max %d",
			k.Name, localSize, max)
	}

	groups := globalSize / localSize
	stats := make([]Counters, groups)
	errs := make([]error, groups)

	var tracker *hazardTracker
	if q.hazardsEnabled() {
		tracker = newHazardTracker()
	}

	start := time.Now()
	workers := runtime.GOMAXPROCS(0)
	if workers > groups {
		workers = groups
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range next {
				stats[g], errs[g] = q.runGroup(k, g, localSize, globalSize, tracker)
			}
		}()
	}
	for g := 0; g < groups; g++ {
		next <- g
	}
	close(next)
	wg.Wait()

	var st Counters
	for g := range stats {
		if errs[g] != nil {
			return Event{}, fmt.Errorf("opencl: kernel %q group %d: %w", k.Name, g, errs[g])
		}
		st.Add(stats[g])
	}
	if tracker != nil {
		if conflicts := tracker.report(); len(conflicts) > 0 {
			return Event{}, fmt.Errorf("opencl: kernel %q has %d memory hazards; first: %s",
				k.Name, len(conflicts), conflicts[0])
		}
	}
	st.Kernels = 1
	st.KernelLaunches = 1
	st.WorkGroups = int64(groups)
	st.WorkItems = int64(globalSize)
	return q.record("ndrange "+k.Name, st, queued, start), nil
}

// runGroup executes one work-group and returns its merged meters.
func (q *CommandQueue) runGroup(k *Kernel, groupID, localSize, globalSize int, tracker *hazardTracker) (st Counters, err error) {
	g := &groupCtx{
		kernel:    k,
		groupID:   groupID,
		localSize: localSize,
		glSize:    globalSize,
		locals:    make(map[int][]float64),
		localElem: make(map[int]int64),
		hazard:    tracker,
	}
	var localBytes int64
	for i, l := range k.localArgs() {
		if l.N <= 0 || (l.ElemBytes != 4 && l.ElemBytes != 8) {
			return st, fmt.Errorf("local arg %d invalid (n=%d elem=%d)", i, l.N, l.ElemBytes)
		}
		g.locals[i] = make([]float64, l.N)
		g.localElem[i] = int64(l.ElemBytes)
		localBytes += int64(l.N) * int64(l.ElemBytes)
	}
	if max := q.ctx.device.Info.LocalMemBytes; max > 0 && localBytes > max {
		return st, fmt.Errorf("local memory %dB exceeds device limit %dB", localBytes, max)
	}

	if !k.UsesBarriers {
		// Sequential schedule; a single WorkItem value is reused.
		wi := &WorkItem{g: g}
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("work-item %d: %v", wi.globalID, r)
			}
		}()
		for l := 0; l < localSize; l++ {
			wi.localID = l
			wi.globalID = groupID*localSize + l
			k.fn(wi)
		}
		return wi.stats, nil
	}

	// Concurrent schedule with a cyclic barrier. A panicking work-item
	// breaks the barrier so its siblings unwind instead of deadlocking.
	g.bar = newBarrier(localSize)
	items := make([]*WorkItem, localSize)
	panics := make([]any, localSize)
	var wg sync.WaitGroup
	for l := 0; l < localSize; l++ {
		items[l] = &WorkItem{g: g, localID: l, globalID: groupID*localSize + l}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[idx] = r
					g.bar.breakBarrier()
				}
			}()
			k.fn(items[idx])
		}(l)
	}
	wg.Wait()
	// Report the root cause, not the induced barrier breakages.
	for l, p := range panics {
		if p != nil && p != errBarrierBroken {
			return st, fmt.Errorf("work-item %d: %v", groupID*localSize+l, p)
		}
	}
	for l, p := range panics {
		if p != nil {
			return st, fmt.Errorf("work-item %d: %v", groupID*localSize+l, p)
		}
	}
	for _, wi := range items {
		st.Add(wi.stats)
	}
	return st, nil
}

// Finish blocks until all enqueued commands complete (clFinish). This
// runtime executes commands synchronously at enqueue time, so Finish is
// a semantic no-op kept for API fidelity with host code written against
// real OpenCL; drivers call it at batch boundaries exactly where the
// paper's host program does.
func (q *CommandQueue) Finish() {}
