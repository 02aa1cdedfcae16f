package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/heap"
	"repro/internal/task"
)

func item(obj int, size int64, w float64) Item {
	return Item{Ref: heap.ChunkRef{Obj: task.ObjectID(obj)}, Size: size, Weight: w}
}

func TestKnapsackPrefersWeightOverDensity(t *testing.T) {
	// Greedy (density) takes the two small dense items; the DP finds the
	// single large item worth more in total.
	items := []Item{
		item(0, 60, 60), // density 1.0
		item(1, 60, 60), // density 1.0
		item(2, 100, 150),
	}
	chosen := Knapsack(items, 100, 1)
	if len(chosen) != 1 || chosen[0] != 2 {
		t.Fatalf("DP chose %v, want [2]", chosen)
	}
	greedy := Greedy(items, 100)
	if TotalWeight(items, greedy) > TotalWeight(items, chosen) {
		t.Fatal("greedy beat the DP")
	}
}

func TestKnapsackSkipsNonPositiveWeights(t *testing.T) {
	items := []Item{
		item(0, 10, -5),
		item(1, 10, 0),
		item(2, 10, 3),
	}
	chosen := Knapsack(items, 100, 1)
	if len(chosen) != 1 || chosen[0] != 2 {
		t.Fatalf("chose %v, want only the positive item", chosen)
	}
}

func TestKnapsackRespectsCapacity(t *testing.T) {
	items := []Item{
		item(0, 50, 10),
		item(1, 60, 10),
		item(2, 70, 10),
	}
	chosen := Knapsack(items, 115, 1)
	if TotalSize(items, chosen) > 115 {
		t.Fatalf("capacity exceeded: %d", TotalSize(items, chosen))
	}
	if len(chosen) != 2 {
		t.Fatalf("chose %v, want two items", chosen)
	}
}

func TestKnapsackQuantizationIsConservative(t *testing.T) {
	// With 10-byte granularity, a list of 11-byte items costs 20 bytes
	// each in the table, so a 40-byte capacity takes exactly 2.
	items := []Item{
		item(0, 11, 1), item(1, 11, 1), item(2, 11, 1), item(3, 11, 1),
	}
	chosen := Knapsack(items, 40, 10)
	if len(chosen) != 2 {
		t.Fatalf("quantized choice = %v, want 2 items", chosen)
	}
	if TotalSize(items, chosen) > 40 {
		t.Fatal("quantization overpacked")
	}
}

func TestKnapsackEmptyAndOversize(t *testing.T) {
	if got := Knapsack(nil, 100, 1); got != nil {
		t.Fatal("nil items should choose nothing")
	}
	items := []Item{item(0, 1000, 99)}
	if got := Knapsack(items, 100, 1); got != nil {
		t.Fatal("oversize item chosen")
	}
	if got := Knapsack(items, 0, 1); got != nil {
		t.Fatal("zero capacity chose items")
	}
}

func TestBruteForceSmall(t *testing.T) {
	items := []Item{
		item(0, 3, 4), item(1, 4, 5), item(2, 5, 6),
	}
	chosen := BruteForce(items, 7)
	// Best is items 0+1: weight 9, size 7.
	if TotalWeight(items, chosen) != 9 {
		t.Fatalf("brute force weight = %g, want 9", TotalWeight(items, chosen))
	}
}

// TestKnapsackMatchesBruteForce property-checks the DP (at granularity 1)
// against exhaustive search on random small instances.
func TestKnapsackMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		items := make([]Item, n)
		for i := range items {
			items[i] = item(i, int64(rng.Intn(50)+1), float64(rng.Intn(100))-10)
		}
		capacity := int64(rng.Intn(150) + 1)
		dp := Knapsack(items, capacity, 1)
		bf := BruteForce(items, capacity)
		if TotalSize(items, dp) > capacity {
			return false
		}
		// Equal optimal weight (ties may differ in membership).
		return TotalWeight(items, dp) == TotalWeight(items, bf)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyNeverExceedsCapacity and never beats the DP at granularity 1.
func TestGreedyProperties(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 1
		items := make([]Item, n)
		for i := range items {
			items[i] = item(i, int64(rng.Intn(100)+1), float64(rng.Intn(100)))
		}
		capacity := int64(rng.Intn(300) + 1)
		g := Greedy(items, capacity)
		if TotalSize(items, g) > capacity {
			return false
		}
		dp := Knapsack(items, capacity, 1)
		return TotalWeight(items, g) <= TotalWeight(items, dp)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForcePanicsBeyond20(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BruteForce(make([]Item, 21), 10)
}

// Solver (memoized DP) properties.

// randInstance draws a random knapsack instance whose sizes straddle
// granularity multiples and whose weights span negative, zero and
// positive.
func randInstance(seed int64) (items []Item, capacity, gran int64) {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(12) + 1
	items = make([]Item, n)
	for i := range items {
		items[i] = item(i, int64(rng.Intn(200)+1), float64(rng.Intn(200)-60)/7)
	}
	capacity = int64(rng.Intn(500) + 1)
	gran = int64(rng.Intn(9) + 1)
	return items, capacity, gran
}

// sameIndices reports whether two chosen-index lists are equal, treating
// nil and empty alike.
func sameIndices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSolverHitMatchesColdDP: on random instances — including negative
// weights and granularity-rounding edges — a cache hit must return the
// same indices a cold DP computes, and Hits/Misses must account every
// call.
func TestSolverHitMatchesColdDP(t *testing.T) {
	check := func(seed int64) bool {
		items, capacity, gran := randInstance(seed)
		s := NewSolver()
		first := s.Solve(items, capacity, gran)
		second := s.Solve(items, capacity, gran)
		if s.Hits != 1 || s.Misses != 1 || s.Len() != 1 {
			return false
		}
		cold := Knapsack(items, capacity, gran)
		if len(first) != len(cold) || len(second) != len(cold) {
			return false
		}
		for i := range cold {
			if first[i] != cold[i] || second[i] != cold[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSolverKeyIgnoresRefs: the DP's answer is indices over the numeric
// inputs, so items differing only in Ref must share one cache entry.
func TestSolverKeyIgnoresRefs(t *testing.T) {
	s := NewSolver()
	a := []Item{item(0, 30, 2), item(1, 40, 3)}
	b := []Item{item(7, 30, 2), item(9, 40, 3)}
	s.Solve(a, 100, 1)
	s.Solve(b, 100, 1)
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("refs leaked into the key: %d misses, %d hits", s.Misses, s.Hits)
	}
}

// TestSolverKeyExact: any numeric change — capacity, granularity, a
// size, or one weight bit — must miss rather than alias.
func TestSolverKeyExact(t *testing.T) {
	s := NewSolver()
	base := []Item{item(0, 30, 2), item(1, 40, 3)}
	s.Solve(base, 100, 1)

	variants := [][]Item{
		{item(0, 31, 2), item(1, 40, 3)},                  // size
		{item(0, 30, 2.0000000000000004), item(1, 40, 3)}, // one ULP
		{item(0, 30, 2), item(1, 40, 3), item(2, 5, 1)},   // length
	}
	for i, v := range variants {
		s.Solve(v, 100, 1)
		if s.Hits != 0 {
			t.Fatalf("variant %d aliased a different instance", i)
		}
	}
	s.Solve(base, 101, 1) // capacity
	s.Solve(base, 100, 2) // granularity
	if s.Hits != 0 {
		t.Fatal("capacity/granularity aliased")
	}
	s.Solve(base, 100, 1)
	if s.Hits != 1 {
		t.Fatal("identical re-solve missed")
	}
}

// TestSolverNegativeAndZeroWeights: all-nonpositive instances solve to
// nothing, cache fine, and stay consistent with the cold DP.
func TestSolverNegativeAndZeroWeights(t *testing.T) {
	s := NewSolver()
	items := []Item{item(0, 10, -5), item(1, 10, 0), item(2, 10, -0.001)}
	for i := 0; i < 3; i++ {
		if got := s.Solve(items, 100, 1); got != nil {
			t.Fatalf("nonpositive weights chose %v", got)
		}
	}
	if s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("cache accounting off: %d misses, %d hits", s.Misses, s.Hits)
	}
}

// TestSolveDirectMatchesKnapsack: the un-memoized solve returns the cold
// DP's indices on random instances — one long-lived Solver across all of
// them, so stale scratch or a stale result buffer would show — and on
// the all-fit fast path and the empty result, without touching the memo
// or its counters.
func TestSolveDirectMatchesKnapsack(t *testing.T) {
	s := NewSolver()
	check := func(seed int64) bool {
		items, capacity, gran := randInstance(seed)
		return sameIndices(s.SolveDirect(items, capacity, gran), Knapsack(items, capacity, gran))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}

	allFit := []Item{item(0, 10, 1), item(1, 10, -1), item(2, 10, 2)}
	if got := s.SolveDirect(allFit, 1000, 1); !sameIndices(got, []int{0, 2}) {
		t.Fatalf("all-fit fast path chose %v, want [0 2]", got)
	}
	empty := []Item{item(0, 10, -5), item(1, 10, 0)}
	got := s.SolveDirect(empty, 1000, 1)
	if len(got) != 0 {
		t.Fatalf("nonpositive weights chose %v", got)
	}
	// An empty result keeps the reused buffer: alternating empty and
	// non-empty solves allocates nothing.
	if cap(got) == 0 {
		t.Fatal("empty result dropped the result buffer")
	}
	if a := testing.AllocsPerRun(50, func() {
		s.SolveDirect(empty, 1000, 1)
		s.SolveDirect(allFit, 1000, 1)
	}); a != 0 {
		t.Fatalf("steady-state SolveDirect allocates %v objects per run", a)
	}
	if s.Len() != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("SolveDirect touched the memo: len %d, %d hits, %d misses", s.Len(), s.Hits, s.Misses)
	}
}

// TestSolverZeroValueUsable: the zero Solver lazily allocates its cache.
func TestSolverZeroValueUsable(t *testing.T) {
	var s Solver
	items := []Item{item(0, 10, 1)}
	if got := s.Solve(items, 100, 1); len(got) != 1 {
		t.Fatalf("zero-value Solver chose %v", got)
	}
	if s.Len() != 1 {
		t.Fatalf("cache len %d", s.Len())
	}
}
