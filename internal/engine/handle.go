package engine

import (
	"sync"
	"sync/atomic"

	"idebench/internal/query"
)

// AsyncHandle is the Handle implementation shared by all engines. Execution
// goroutines either Publish result snapshots into it (blocking and
// report-interval engines) or install a SnapshotFunc that materializes the
// current estimate on demand (fully progressive engines).
type AsyncHandle struct {
	mu        sync.RWMutex
	result    *query.Result
	snapFn    func() *query.Result
	partialFn func() *Partial
	cancelFn  func()
	done      chan struct{}
	doneOnce  sync.Once
	cancelled atomic.Bool
}

// NewAsyncHandle returns a handle with no result yet.
func NewAsyncHandle() *AsyncHandle {
	return &AsyncHandle{done: make(chan struct{})}
}

// Publish stores a result snapshot for subsequent Snapshot calls. The
// caller must hand over ownership (pass a clone if it keeps mutating).
func (h *AsyncHandle) Publish(r *query.Result) {
	h.mu.Lock()
	h.result = r
	h.mu.Unlock()
}

// SetSnapshotFunc makes Snapshot compute results on demand; used by
// progressive engines where any poll should reflect all rows seen so far.
func (h *AsyncHandle) SetSnapshotFunc(fn func() *query.Result) {
	h.mu.Lock()
	h.snapFn = fn
	h.mu.Unlock()
}

// SetPartialFunc makes the handle capable of raw partial snapshots (the
// PartialSnapshotter capability): fn materializes the query's current
// accumulator state in wire form. Engines that serve as scatter-gather
// shards install it alongside SetSnapshotFunc.
func (h *AsyncHandle) SetPartialFunc(fn func() *Partial) {
	h.mu.Lock()
	h.partialFn = fn
	h.mu.Unlock()
}

// PartialSnapshot implements PartialSnapshotter. It returns nil when the
// engine did not install a partial func — the handle then has no shard
// capability, and a serving tier asked for partials reports that instead of
// merging rendered floats.
func (h *AsyncHandle) PartialSnapshot() *Partial {
	h.mu.RLock()
	fn := h.partialFn
	h.mu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// Snapshot implements Handle.
func (h *AsyncHandle) Snapshot() *query.Result {
	h.mu.RLock()
	fn, res := h.snapFn, h.result
	h.mu.RUnlock()
	if fn != nil {
		return fn()
	}
	return res
}

// Done implements Handle.
func (h *AsyncHandle) Done() <-chan struct{} { return h.done }

// Finish marks execution complete; idempotent.
func (h *AsyncHandle) Finish() {
	h.doneOnce.Do(func() { close(h.done) })
}

// SetCancelFunc registers fn to run once on the first Cancel call. Engines
// without a per-query goroutine (shared-scan execution) use it to detach
// their consumer state and finish the handle; engines with a scan goroutine
// keep polling Cancelled instead. Must be set before the handle is returned
// to the driver.
// Setting nil once execution has finished drops what the func retains.
func (h *AsyncHandle) SetCancelFunc(fn func()) {
	h.mu.Lock()
	h.cancelFn = fn
	h.mu.Unlock()
}

// Cancel implements Handle. It requests execution to stop: goroutine-driven
// engines observe Cancelled and call Finish; shared-scan handles run the
// registered cancel func.
func (h *AsyncHandle) Cancel() {
	if !h.cancelled.CompareAndSwap(false, true) {
		return
	}
	h.mu.RLock()
	fn := h.cancelFn
	h.mu.RUnlock()
	if fn != nil {
		fn()
	}
}

// Cancelled reports whether Cancel was called. Scan loops poll this between
// chunks so cancellation latency is bounded by the chunk cost.
func (h *AsyncHandle) Cancelled() bool { return h.cancelled.Load() }

var _ Handle = (*AsyncHandle)(nil)
