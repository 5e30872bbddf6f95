package serve

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

func mkReq() *request { return &request{ready: make(chan struct{})} }

// TestWFQWeights: with both tenants backlogged, dequeue order must track
// the 3:1 weight ratio.
func TestWFQWeights(t *testing.T) {
	q := newWFQ(0)
	q.addTenant("heavy", 3)
	q.addTenant("light", 1)
	reqOf := map[*request]string{}
	for i := 0; i < 60; i++ {
		r := mkReq()
		reqOf[r] = "heavy"
		q.enqueue("heavy", r)
	}
	for i := 0; i < 60; i++ {
		r := mkReq()
		reqOf[r] = "light"
		q.enqueue("light", r)
	}
	heavy := 0
	for i := 0; i < 40; i++ {
		r, ok := q.dequeue()
		if !ok {
			t.Fatal("queue emptied unexpectedly")
		}
		if reqOf[r] == "heavy" {
			heavy++
		}
	}
	// Exact SFQ share over the first 40 is 30 heavy / 10 light; allow ±2
	// for tag ties at the boundary.
	if heavy < 28 || heavy > 32 {
		t.Errorf("heavy tenant got %d of the first 40 slots, want ~30", heavy)
	}
}

// TestWFQIdleTenantNoCredit: a tenant idle while another is served must
// not accumulate priority for later (virtual-time clamp).
func TestWFQIdleTenantNoCredit(t *testing.T) {
	q := newWFQ(0)
	q.addTenant("a", 1)
	q.addTenant("b", 1)
	for i := 0; i < 50; i++ {
		q.enqueue("a", mkReq())
	}
	for i := 0; i < 50; i++ {
		q.dequeue()
	}
	// b was idle throughout; now both enqueue. b must not win 50 slots in
	// a row — its start tag clamps to the current virtual time.
	aReq, bReq := map[*request]bool{}, map[*request]bool{}
	for i := 0; i < 20; i++ {
		ra, rb := mkReq(), mkReq()
		aReq[ra], bReq[rb] = true, true
		q.enqueue("a", ra)
		q.enqueue("b", rb)
	}
	bFirst := 0
	for i := 0; i < 10; i++ {
		r, _ := q.dequeue()
		if bReq[r] {
			bFirst++
		}
	}
	if bFirst > 7 {
		t.Errorf("idle tenant monopolized after backlog: %d of first 10", bFirst)
	}
}

// TestWFQFIFOWithinTenant: one tenant's requests dequeue in enqueue order.
func TestWFQFIFOWithinTenant(t *testing.T) {
	q := newWFQ(0)
	q.addTenant("a", 1)
	var rs []*request
	for i := 0; i < 10; i++ {
		r := mkReq()
		rs = append(rs, r)
		q.enqueue("a", r)
	}
	for i := 0; i < 10; i++ {
		got, _ := q.dequeue()
		if got != rs[i] {
			t.Fatalf("position %d out of order", i)
		}
	}
}

// TestWFQCancelledWaiterLeaves: a waiter whose ctx ends leaves the queue
// and holds no slot, also when a release grants it the slot at the same
// moment — the slot is passed on, never lost.
func TestWFQCancelledWaiterLeaves(t *testing.T) {
	q := newWFQ(1)
	q.addTenant("a", 1)
	for i := 0; i < 300; i++ {
		if err := q.acquire(context.Background(), "a"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		got := make(chan error, 1)
		go func() { got <- q.acquire(ctx, "a") }()
		for q.depth() < 1 {
			runtime.Gosched()
		}
		var err error
		switch i % 3 {
		case 0: // the waiter leaves before the slot frees
			cancel()
			err = <-got
			q.release()
		case 1: // ctx ends, then the slot is handed over
			cancel()
			q.release()
			err = <-got
		case 2: // the slot is handed over, then ctx ends
			q.release()
			cancel()
			err = <-got
		}
		if err == nil {
			q.release()
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter: %v", err)
		}
		q.mu.Lock()
		free, pending := q.free, q.pending
		q.mu.Unlock()
		if free != 1 || pending != 0 {
			t.Fatalf("round %d: %d free slots, %d waiting; want 1, 0", i, free, pending)
		}
	}
}
