package placement

import (
	"encoding/binary"
	"math"
)

// Solver runs Knapsack on reused scratch, optionally memoized.
//
// Solve and SolveTagged memoize: they key each call by an exact canonical
// signature of its inputs and pay a map lookup on repeats instead of
// re-running the DP. They serve the solves that do repeat exactly — the
// global plan, the tier cascade, the level plans, and Margins re-asking
// for the global plan's solution. SolveDirect skips the memo: the
// planner's per-task local search poses a candidate pattern per task
// whose weights drift with the lookahead window, so most of its patterns
// are new (on cholesky at scale 64, 24% hit on the first plan and 2-19%
// on each replan), and building and storing their keys cost several
// times the DP it saved.
//
// The memo signature covers capacity, granularity, and every item's
// (Size, Float64bits(Weight)) in order. Item Refs are deliberately
// excluded: the DP's answer is a list of item *indices*, which depends
// only on the numeric inputs, never on which chunks the indices name.
// Because keys compare the exact weight bits, a hit returns bit-identical
// results to a cold DP by construction.
//
// A Solver is not safe for concurrent use; give each runner its own.
type Solver struct {
	cache   map[string][]int
	key     []byte
	scratch knapScratch // reused DP working set; misses allocate only the result
	direct  []int       // SolveDirect's reused result buffer

	// Hits and Misses count memoized (Solve, SolveTagged, Margins)
	// outcomes, for tests, benchmarks, and adaptive sampling's
	// lookup-vs-DP overhead charge. SolveDirect leaves them alone.
	Hits, Misses int
}

// NewSolver returns an empty Solver.
func NewSolver() *Solver {
	return &Solver{cache: make(map[string][]int)}
}

// Solve returns Knapsack(items, capacity, gran), memoized. The returned
// slice is shared with the cache: callers must not mutate it.
func (s *Solver) Solve(items []Item, capacity, gran int64) []int {
	return s.memoized(s.key[:0], items, capacity, gran)
}

// SolveTagged is Solve with an extra caller-chosen tag folded into the
// memo key. The multiple-choice tier cascade (AssignTiers) uses the tier
// id as the tag: each tier's stage sees items whose weights are that
// tier's benefits, and the tag keeps two tiers' coincidentally equal
// candidate patterns from aliasing each other's cached answers.
func (s *Solver) SolveTagged(tag uint64, items []Item, capacity, gran int64) []int {
	k := binary.LittleEndian.AppendUint64(s.key[:0], ^tag) // distinct prefix space from Solve keys
	return s.memoized(k, items, capacity, gran)
}

// memoized appends the input signature to the key prefix k, then returns
// the cached solution or solves and caches it.
func (s *Solver) memoized(k []byte, items []Item, capacity, gran int64) []int {
	if s.cache == nil {
		s.cache = make(map[string][]int)
	}
	k = binary.LittleEndian.AppendUint64(k, uint64(capacity))
	k = binary.LittleEndian.AppendUint64(k, uint64(gran))
	for _, it := range items {
		k = binary.LittleEndian.AppendUint64(k, uint64(it.Size))
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(it.Weight))
	}
	s.key = k
	if chosen, ok := s.cache[string(k)]; ok {
		s.Hits++
		return chosen
	}
	s.Misses++
	chosen := s.scratch.solve(nil, items, capacity, gran)
	s.cache[string(k)] = chosen
	return chosen
}

// SolveDirect returns Knapsack(items, capacity, gran) without touching
// the memo, Hits, or Misses. The result lives in a buffer the Solver
// reuses: it is valid only until the next SolveDirect call, and callers
// must not mutate it. Steady-state calls allocate nothing.
func (s *Solver) SolveDirect(items []Item, capacity, gran int64) []int {
	if s.direct == nil {
		s.direct = make([]int, 0, 16)
	}
	s.direct = s.scratch.solve(s.direct, items, capacity, gran)
	return s.direct
}

// Len returns the number of cached solutions.
func (s *Solver) Len() int { return len(s.cache) }
