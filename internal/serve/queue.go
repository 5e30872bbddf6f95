package serve

import (
	"container/heap"
	"context"
	"slices"
	"sync"
)

// wfq hands out a fixed number of execution slots in weighted-fair order
// (start-time fair queueing with unit request cost). Each request is
// stamped with a virtual finish tag F = max(V, tenantLastFinish) +
// 1/weight; it takes a free slot at once if nobody waits, else a finishing
// caller hands it the slot when its tag is the smallest, and V advances to
// the start tag of the request taking a slot. A backlogged tenant with
// weight w receives a w-share of the slots, and an idle tenant's share is
// redistributed instead of accumulating (the max(V, ·) clamp).
type wfq struct {
	mu      sync.Mutex
	free    int // slots no caller holds; nobody waits while free > 0
	virtual float64
	tenants map[string]*tenantQueue
	active  tenantHeap // tenants with waiting requests, keyed by head tag
	pending int
}

// request is one cache miss's place in the queue.
type request struct {
	start  float64       // wfq virtual start tag
	finish float64       // wfq virtual finish tag
	ready  chan struct{} // closed when a finishing caller hands over its slot
}

type tenantQueue struct {
	name       string
	weight     float64
	reqs       []*request // FIFO within the tenant
	lastFinish float64
	heapIdx    int // -1 when not in the active heap
}

func newWFQ(slots int) *wfq {
	return &wfq{free: slots, tenants: map[string]*tenantQueue{}}
}

// addTenant registers a tenant's queue. weight ≤ 0 is raised to 1.
func (q *wfq) addTenant(name string, weight float64) {
	if weight <= 0 {
		weight = 1
	}
	q.mu.Lock()
	q.tenants[name] = &tenantQueue{name: name, weight: weight, heapIdx: -1}
	q.mu.Unlock()
}

// acquire returns once the caller holds a slot, or with ctx.Err() if ctx
// ends first; a caller that gets a slot must release it. A caller whose ctx
// ends while it waits leaves the queue and never holds a slot.
func (q *wfq) acquire(ctx context.Context, tenant string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r := &request{}
	q.mu.Lock()
	q.enqueue(tenant, r)
	if q.free > 0 { // nobody waits while a slot is free: r has the smallest tag
		q.free--
		q.dequeue()
		q.mu.Unlock()
		return nil
	}
	r.ready = make(chan struct{})
	q.mu.Unlock()
	select {
	case <-r.ready:
		return nil
	case <-ctx.Done():
	}
	q.mu.Lock()
	waiting := q.remove(tenant, r)
	q.mu.Unlock()
	if !waiting { // granted as ctx ended: pass the slot on
		q.release()
	}
	return ctx.Err()
}

// release hands the caller's slot to the waiter with the smallest tag, or
// frees it when nobody waits.
func (q *wfq) release() {
	q.mu.Lock()
	if r, ok := q.dequeue(); ok {
		close(r.ready)
	} else {
		q.free++
	}
	q.mu.Unlock()
}

// enqueue stamps r with its virtual tags and queues it. The caller holds
// q.mu.
func (q *wfq) enqueue(tenant string, r *request) {
	tq := q.tenants[tenant]
	r.start = max(q.virtual, tq.lastFinish)
	r.finish = r.start + 1/tq.weight
	tq.lastFinish = r.finish
	tq.reqs = append(tq.reqs, r)
	q.pending++
	if tq.heapIdx < 0 {
		heap.Push(&q.active, tq)
	}
}

// dequeue pops the request with the smallest tag; ok is false when nobody
// waits. The caller holds q.mu.
func (q *wfq) dequeue() (r *request, ok bool) {
	if q.active.Len() == 0 {
		return nil, false
	}
	tq := q.active[0]
	r = tq.reqs[0]
	tq.reqs[0] = nil
	tq.reqs = tq.reqs[1:]
	q.pending--
	q.virtual = max(q.virtual, r.start)
	if len(tq.reqs) == 0 {
		heap.Pop(&q.active)
	} else {
		heap.Fix(&q.active, 0)
	}
	return r, true
}

// remove takes r out of its tenant's queue, reporting false when r is no
// longer waiting (it was granted a slot). The caller holds q.mu.
func (q *wfq) remove(tenant string, r *request) bool {
	tq := q.tenants[tenant]
	i := slices.Index(tq.reqs, r)
	if i < 0 {
		return false
	}
	tq.reqs = slices.Delete(tq.reqs, i, i+1)
	q.pending--
	switch {
	case len(tq.reqs) == 0:
		heap.Remove(&q.active, tq.heapIdx)
	case i == 0:
		heap.Fix(&q.active, tq.heapIdx)
	}
	return true
}

// depth returns the number of callers waiting for a slot.
func (q *wfq) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

// tenantHeap orders active tenants by their head request's finish tag
// (tie-broken by name for determinism).
type tenantHeap []*tenantQueue

func (h tenantHeap) Len() int { return len(h) }
func (h tenantHeap) Less(i, j int) bool {
	fi, fj := h[i].reqs[0].finish, h[j].reqs[0].finish
	if fi != fj {
		return fi < fj
	}
	return h[i].name < h[j].name
}
func (h tenantHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}
func (h *tenantHeap) Push(x any) {
	tq := x.(*tenantQueue)
	tq.heapIdx = len(*h)
	*h = append(*h, tq)
}
func (h *tenantHeap) Pop() any {
	old := *h
	n := len(old)
	tq := old[n-1]
	old[n-1] = nil
	tq.heapIdx = -1
	*h = old[:n-1]
	return tq
}
