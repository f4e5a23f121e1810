package spill

import (
	"sync"
	"testing"
)

// Used reports the rows currently reserved.
func (b *Budget) Used() int {
	if b == nil {
		return 0
	}
	return int(b.used.Load())
}

func TestPoolReserveRefuseRelease(t *testing.T) {
	p := NewPool(100)
	if !p.TryReserve(60) || !p.TryReserve(40) {
		t.Fatalf("reservations within limit refused (used=%d)", p.Used())
	}
	if p.TryReserve(1) {
		t.Fatal("reservation past the limit admitted")
	}
	if got := p.Refused(); got != 1 {
		t.Fatalf("Refused = %d, want 1", got)
	}
	p.Release(40)
	if !p.TryReserve(30) {
		t.Fatal("reservation refused after release made room")
	}
	if got, want := p.Used(), 90; got != want {
		t.Fatalf("Used = %d, want %d", got, want)
	}
	if got, want := p.MaxUsed(), 100; got != want {
		t.Fatalf("MaxUsed = %d, want %d", got, want)
	}
}

func TestPoolNilAndZeroLimit(t *testing.T) {
	if NewPool(0) != nil || NewPool(-5) != nil {
		t.Fatal("NewPool with non-positive limit should return nil")
	}
	var p *Pool
	if !p.TryReserve(1 << 30) {
		t.Fatal("nil pool must admit everything")
	}
	p.ForceReserve(10)
	p.Release(10)
	if p.Used() != 0 || p.Limit() != 0 || p.Refused() != 0 || p.MaxUsed() != 0 {
		t.Fatal("nil pool accessors must report zero")
	}
}

func TestPoolForceReserveOvershoots(t *testing.T) {
	p := NewPool(10)
	if !p.TryReserve(10) {
		t.Fatal("full reservation refused")
	}
	p.ForceReserve(5)
	if got, want := p.Used(), 15; got != want {
		t.Fatalf("Used = %d, want %d (forced overshoot tracked)", got, want)
	}
	p.Release(15)
	if got := p.Used(); got != 0 {
		t.Fatalf("Used = %d after symmetric release, want 0", got)
	}
}

// TestBudgetWithPoolBothBoundsApply checks that a pooled budget admits a
// reservation only when both the per-query limit and the shared pool have
// room, and that a pool refusal rolls the local reservation back.
func TestBudgetWithPoolBothBoundsApply(t *testing.T) {
	pool := NewPool(50)
	a := NewBudget(40, 0).WithPool(pool)
	b := NewBudget(40, 0).WithPool(pool)

	if !a.TryReserve(30) {
		t.Fatal("a: reservation within both bounds refused")
	}
	// b has local room (30 < 40) but the pool only has 20 left.
	if b.TryReserve(30) {
		t.Fatal("b: reservation admitted past the pool bound")
	}
	if got := b.Used(); got != 0 {
		t.Fatalf("b.Used = %d after pool refusal, want 0 (rollback)", got)
	}
	if pool.Refused() != 1 {
		t.Fatalf("pool.Refused = %d, want 1", pool.Refused())
	}
	if !b.TryReserve(20) {
		t.Fatal("b: reservation within remaining pool room refused")
	}
	// a is at 30/40 locally; the pool is full, so even a small ask refuses.
	if a.TryReserve(5) {
		t.Fatal("a: reservation admitted with the pool exhausted")
	}
	a.Release(30)
	b.Release(20)
	if pool.Used() != 0 {
		t.Fatalf("pool.Used = %d after all releases, want 0", pool.Used())
	}
}

// TestBudgetPoolOnly checks a locally-unlimited budget attached to a pool:
// the pool becomes the only bound, and local usage tracking stays
// symmetric so releases return the right amount.
func TestBudgetPoolOnly(t *testing.T) {
	pool := NewPool(25)
	b := NewBudget(0, 0).WithPool(pool)
	if b.Unlimited() {
		t.Fatal("pool-attached budget must not report Unlimited")
	}
	if !b.TryReserve(20) {
		t.Fatal("reservation within the pool refused")
	}
	if b.TryReserve(10) {
		t.Fatal("reservation past the pool admitted")
	}
	if got := b.Used(); got != 20 {
		t.Fatalf("b.Used = %d, want 20", got)
	}
	b.ForceReserve(10)
	if got := pool.Used(); got != 30 {
		t.Fatalf("pool.Used = %d after ForceReserve, want 30", got)
	}
	b.Release(30)
	if b.Used() != 0 || pool.Used() != 0 {
		t.Fatalf("asymmetric release: b.Used=%d pool.Used=%d", b.Used(), pool.Used())
	}
}

func TestBudgetWithPoolNilIsNoOp(t *testing.T) {
	b := NewBudget(0, 0).WithPool(nil)
	if !b.Unlimited() {
		t.Fatal("WithPool(nil) must leave an unlimited budget unlimited")
	}
	if !b.TryReserve(1 << 30) {
		t.Fatal("unlimited budget refused a reservation")
	}
}

// TestPoolConcurrentReserveRelease hammers one pool from many goroutines
// (as concurrent sessions' query budgets do) and checks the accounting
// returns to zero and never exceeded the limit.
func TestPoolConcurrentReserveRelease(t *testing.T) {
	const limit = 64
	pool := NewPool(limit)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := NewBudget(0, 0).WithPool(pool)
			for i := 0; i < 500; i++ {
				if b.TryReserve(8) {
					b.Release(8)
				}
			}
		}()
	}
	wg.Wait()
	if pool.Used() != 0 {
		t.Fatalf("pool.Used = %d after all workers released, want 0", pool.Used())
	}
	if pool.MaxUsed() > limit {
		t.Fatalf("pool.MaxUsed = %d exceeded limit %d", pool.MaxUsed(), limit)
	}
}
