// Package placement solves the data-placement decision problem: given
// candidate data objects (or chunks), each with a size and a weight —
// predicted benefit minus migration and eviction costs, the paper's
// equation (7) — choose the subset to keep in DRAM that maximizes total
// weight without exceeding the DRAM capacity. This is a 0-1 knapsack
// problem; the runtime solves it with dynamic programming, and the test
// suite cross-checks the DP against greedy and exhaustive solvers. For
// machines with more than two tiers, AssignTiers extends the solve to a
// multiple-choice knapsack (one tier per chunk, capacity per tier) as a
// fastest-first cascade of 0-1 knapsacks.
//
// Invariants: Solver memoization keys are exact canonical signatures of
// the numeric inputs — capacity, granularity, every item's (Size,
// Float64bits(Weight)), and for SolveTagged the caller's tag — so a
// cache hit is bit-identical to a cold DP by construction; and a chosen
// set always really fits, because sizes quantize up.
package placement

import (
	"slices"

	"repro/internal/heap"
)

// Item is one candidate DRAM resident.
type Item struct {
	Ref    heap.ChunkRef
	Size   int64
	Weight float64
}

// DefaultGranularity quantizes sizes for the DP table; 1 MB keeps the
// table small while DRAM capacities are hundreds of MB.
const DefaultGranularity = 1 << 20

// Knapsack returns the indices of the chosen items, maximizing total
// weight subject to the capacity. Sizes are quantized up to gran
// (conservative: a chosen set always really fits). Items with
// non-positive weight are never chosen — moving them cannot pay off.
func Knapsack(items []Item, capacity int64, gran int64) []int {
	var sc knapScratch
	return sc.solve(nil, items, capacity, gran)
}

// Cells is a size in DP cells of gran bytes, quantized up: the solver's
// conservative rounding, under which a chosen set always really fits.
func Cells(size, gran int64) int {
	return int((size + gran - 1) / gran)
}

// Admissible reports whether the solver considers an item whose size
// spans c cells against a capacity of cells: its weight is not <= 0, its
// size is positive, and it fits at all. When the admissible items' cells
// sum to at most the capacity, the solver chooses exactly those items —
// a caller tracking that sum can know the answer without solving.
func Admissible(weight float64, size int64, c, cells int) bool {
	return !(weight <= 0) && size > 0 && c <= cells
}

// knapCand is one filtered DP candidate.
type knapCand struct {
	idx   int
	cells int
	w     float64
}

// knapScratch holds the DP working set — the candidate list, the best[]
// value row, and the taken choice matrix (flattened into one slab) — so
// a long-lived owner (the Solver) re-runs the DP without allocating.
// The DP result is independent of stale scratch contents: best is
// zeroed and every taken row is written before it is read.
type knapScratch struct {
	cands []knapCand
	best  []float64
	taken []bool // len(cands) rows of (cells+1) entries
}

// solve is Knapsack with owner-provided scratch. The chosen indices are
// appended to dst[:0]: a nil dst yields a freshly allocated result the
// caller may keep (nil when nothing is chosen), a non-nil dst is reused
// and an empty result keeps its backing array.
func (sc *knapScratch) solve(dst []int, items []Item, capacity int64, gran int64) []int {
	chosen := dst[:0]
	if gran <= 0 {
		gran = DefaultGranularity
	}
	cells := int(capacity / gran)
	if cells <= 0 || len(items) == 0 {
		return chosen
	}

	// Candidate filter: positive weight and fits at all.
	cands := sc.cands[:0]
	for i, it := range items {
		c := Cells(it.Size, gran)
		if !Admissible(it.Weight, it.Size, c, cells) {
			continue
		}
		cands = append(cands, knapCand{idx: i, cells: c, w: it.Weight})
	}
	sc.cands = cands
	if len(cands) == 0 {
		return chosen
	}

	// Fast path: if every positive-weight candidate fits together, the
	// optimum is all of them — the DP would reconstruct exactly that set
	// (dropping any candidate only loses weight). Local searches pose
	// this case constantly: one task's few chunks against a whole tier.
	total := 0
	for _, c := range cands {
		total += c.cells
	}
	if total <= cells {
		if chosen == nil {
			chosen = make([]int, 0, len(cands))
		}
		for _, c := range cands {
			chosen = append(chosen, c.idx) // ascending already: the filter preserves item order
		}
		return chosen
	}

	// Classic DP over capacity cells, tracking choices with a row per
	// item to reconstruct the solution.
	row := cells + 1
	if cap(sc.best) < row {
		sc.best = make([]float64, row)
	}
	best := sc.best[:row]
	for i := range best {
		best[i] = 0
	}
	if need := len(cands) * row; cap(sc.taken) < need {
		sc.taken = make([]bool, need)
	}
	taken := sc.taken[:len(cands)*row]
	for i, c := range cands {
		// Bulk-clear the row (memclr), then mark only the improvements:
		// cheaper than a branch-and-store per cell, and cells below the
		// item's own size can never take it at all.
		tr := taken[i*row : (i+1)*row]
		clear(tr)
		for cap := cells; cap >= c.cells; cap-- {
			if v := best[cap-c.cells] + c.w; v > best[cap] {
				best[cap] = v
				tr[cap] = true
			}
		}
	}

	// Reconstruct, walking candidates backwards (descending item index),
	// then reverse into ascending order.
	cap := cells
	for i := len(cands) - 1; i >= 0; i-- {
		if taken[i*row+cap] {
			chosen = append(chosen, cands[i].idx)
			cap -= cands[i].cells
		}
	}
	slices.Reverse(chosen)
	return chosen
}
