package scheduler

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tunable/internal/resource"
)

func testArbiter(t *testing.T, pool resource.Vector, shares ...ClassShare) *Arbiter {
	t.Helper()
	a, err := NewArbiter(pool, shares)
	if err != nil {
		t.Fatalf("NewArbiter: %v", err)
	}
	return a
}

func TestArbiterValidation(t *testing.T) {
	if _, err := NewArbiter(nil, []ClassShare{{Class: "a", Weight: 1}}); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewArbiter(resource.Vector{resource.CPU: 0}, []ClassShare{{Class: "a", Weight: 1}}); err == nil {
		t.Error("zero pool accepted")
	}
	if _, err := NewArbiter(resource.Vector{resource.CPU: 1}, nil); err == nil {
		t.Error("no classes accepted")
	}
	if _, err := NewArbiter(resource.Vector{resource.CPU: 1}, []ClassShare{{Class: "a", Weight: 0}}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewArbiter(resource.Vector{resource.CPU: 1},
		[]ClassShare{{Class: "a", Weight: 1}, {Class: "a", Weight: 1}}); err == nil {
		t.Error("duplicate class accepted")
	}
}

func TestArbiterGuaranteeSplit(t *testing.T) {
	a := testArbiter(t, resource.Vector{resource.Bandwidth: 900e3},
		ClassShare{Class: "video", Weight: 2}, ClassShare{Class: "foveal", Weight: 1})
	g, err := a.Guarantee("video")
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Get(resource.Bandwidth, 0); got != 600e3 {
		t.Errorf("video guarantee = %g, want 600e3", got)
	}
	g, _ = a.Guarantee("foveal")
	if got := g.Get(resource.Bandwidth, 0); got != 300e3 {
		t.Errorf("foveal guarantee = %g, want 300e3", got)
	}
	if _, err := a.Guarantee("nope"); err == nil {
		t.Error("unknown class accepted")
	}
}

// TestArbiterGuaranteeProtected is the no-starvation property: after one
// class greedily borrows everything it can, the other class can still
// acquire its full guarantee.
func TestArbiterGuaranteeProtected(t *testing.T) {
	a := testArbiter(t, resource.Vector{resource.Bandwidth: 1000e3},
		ClassShare{Class: "video", Weight: 1}, ClassShare{Class: "foveal", Weight: 1})

	// Video grabs in 100 KB/s bites until refused.
	var grabbed int
	for {
		if _, err := a.Acquire("video", resource.Vector{resource.Bandwidth: 100e3}); err != nil {
			break
		}
		grabbed++
	}
	// Work-conserving: with foveal idle, video must borrow past its 500
	// KB/s guarantee but must stop at pool - foveal's guarantee.
	if grabbed != 5 {
		t.Fatalf("video grabbed %d x 100KB/s, want 5 (own guarantee, foveal idle guarantee protected)", grabbed)
	}
	// Foveal's entire guarantee must still be acquirable.
	for i := 0; i < 5; i++ {
		if _, err := a.Acquire("foveal", resource.Vector{resource.Bandwidth: 100e3}); err != nil {
			t.Fatalf("foveal acquisition %d within its guarantee refused: %v", i, err)
		}
	}
	if !a.Contended() {
		t.Error("both classes active but Contended() = false")
	}
}

// TestArbiterBorrowsWhenIdle: when the other class holds nothing, its
// guarantee is still owed — borrowing beyond own-guarantee must stop at
// pool minus the other's guarantee, and releasing returns the headroom.
func TestArbiterReleaseReturnsCapacity(t *testing.T) {
	a := testArbiter(t, resource.Vector{resource.Bandwidth: 1000e3},
		ClassShare{Class: "video", Weight: 1}, ClassShare{Class: "foveal", Weight: 1})
	g1, err := a.Acquire("video", resource.Vector{resource.Bandwidth: 500e3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire("video", resource.Vector{resource.Bandwidth: 400e3}); err == nil {
		t.Fatal("acquisition invading foveal's guarantee admitted")
	}
	a.Release(g1)
	a.Release(g1) // idempotent
	if got := a.Used("video").Get(resource.Bandwidth, 0); got != 0 {
		t.Fatalf("used after release = %g, want 0", got)
	}
	if _, err := a.Acquire("video", resource.Vector{resource.Bandwidth: 500e3}); err != nil {
		t.Fatalf("re-acquire after release refused: %v", err)
	}
}

func TestArbiterRejectsUnpooledAndNegative(t *testing.T) {
	a := testArbiter(t, resource.Vector{resource.Bandwidth: 1000e3},
		ClassShare{Class: "video", Weight: 1})
	if _, err := a.Acquire("video", resource.Vector{resource.CPU: 0.1}); err == nil {
		t.Error("unpooled resource accepted")
	}
	if _, err := a.Acquire("video", resource.Vector{resource.Bandwidth: -1}); err == nil {
		t.Error("negative want accepted")
	}
	if _, err := a.Acquire("ghost", resource.Vector{resource.Bandwidth: 1}); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestArbiterPlanningCapacity(t *testing.T) {
	a := testArbiter(t, resource.Vector{resource.Bandwidth: 1000e3},
		ClassShare{Class: "video", Weight: 1}, ClassShare{Class: "foveal", Weight: 1})

	// Uncontended: observations pass through untouched.
	obs := resource.Vector{resource.Bandwidth: 900e3, resource.CPU: 0.4}
	if got := a.PlanningCapacity("video", obs).Get(resource.Bandwidth, 0); got != 900e3 {
		t.Errorf("uncontended planning capacity = %g, want 900e3", got)
	}

	gv, _ := a.Acquire("video", resource.Vector{resource.Bandwidth: 300e3})
	gf, _ := a.Acquire("foveal", resource.Vector{resource.Bandwidth: 300e3})
	defer a.Release(gv)
	defer a.Release(gf)

	// Contended: guarantee (500e3) + idle (400e3) = 900e3 caps the plan.
	got := a.PlanningCapacity("video", resource.Vector{resource.Bandwidth: 950e3, resource.CPU: 0.4})
	if bw := got.Get(resource.Bandwidth, 0); bw != 900e3 {
		t.Errorf("contended planning bandwidth = %g, want 900e3", bw)
	}
	// Unpooled kinds pass through.
	if cpu := got.Get(resource.CPU, 0); cpu != 0.4 {
		t.Errorf("unpooled CPU derated: %g, want 0.4", cpu)
	}
	// Observations below the clamp are kept (never plan above probes).
	got = a.PlanningCapacity("video", resource.Vector{resource.Bandwidth: 100e3})
	if bw := got.Get(resource.Bandwidth, 0); bw != 100e3 {
		t.Errorf("low observation raised to %g, want 100e3", bw)
	}
}

// TestArbiterSharesHoldUnderChurn hammers the arbiter from parallel
// goroutines (meaningful under -race) and checks the two invariants that
// make arbitration safe: total holdings never exceed the pool, and an
// acquisition within a class's unmet guarantee is never refused.
func TestArbiterSharesHoldUnderChurn(t *testing.T) {
	const (
		pool    = 1000e3
		classes = 4
		workers = 8
		iters   = 2000
		bite    = 25e3
	)
	shares := make([]ClassShare, classes)
	names := []string{"a", "b", "c", "d"}
	for i := range shares {
		shares[i] = ClassShare{Class: names[i], Weight: 1}
	}
	a := testArbiter(t, resource.Vector{resource.Bandwidth: pool}, shares...)
	guarantee := pool / classes

	// held tracks each class's holdings across both of its workers. It is
	// updated under the same lock as the Acquire/Release it mirrors, so a
	// refusal is judged against the class's exact holdings at that moment.
	var (
		mu      sync.Mutex
		held    = map[string]float64{}
		refused []error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			class := names[w%classes]
			var mine []*ClassGrant
			release := func(g *ClassGrant) {
				mu.Lock()
				a.Release(g)
				held[class] -= bite
				mu.Unlock()
			}
			for i := 0; i < iters; i++ {
				if len(mine) > 0 && rng.Intn(2) == 0 {
					release(mine[len(mine)-1])
					mine = mine[:len(mine)-1]
					continue
				}
				mu.Lock()
				g, err := a.Acquire(class, resource.Vector{resource.Bandwidth: bite})
				if err == nil {
					held[class] += bite
				} else if held[class]+bite <= guarantee {
					// The class as a whole is still within its guarantee:
					// the arbiter must not refuse.
					refused = append(refused, fmt.Errorf("class %s holding %g: %w", class, held[class], err))
				}
				mu.Unlock()
				if err == nil {
					mine = append(mine, g)
				}
			}
			for _, g := range mine {
				release(g)
			}
		}()
	}
	wg.Wait()
	for _, err := range refused {
		t.Errorf("acquisition within guarantee refused under churn: %v", err)
	}
	// Everything released: holdings drain to zero.
	for _, c := range a.Classes() {
		if got := a.Used(c).Get(resource.Bandwidth, 0); got != 0 {
			t.Errorf("class %s still holds %g after full release", c, got)
		}
		if n := a.Active(c); n != 0 {
			t.Errorf("class %s still has %d active grants", c, n)
		}
	}
}
