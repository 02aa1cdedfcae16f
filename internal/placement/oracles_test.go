package placement

import "sort"

// Test-only helpers: the greedy approximation and the brute-force
// oracle the property tests compare the DP against, and the sums they
// check results with.

// Greedy chooses items by weight density (weight per byte) until the
// capacity is exhausted — the classic knapsack approximation, kept as a
// fast fallback and a cross-check for the DP.
func Greedy(items []Item, capacity int64) []int {
	order := make([]int, 0, len(items))
	for i, it := range items {
		if it.Weight > 0 && it.Size > 0 && it.Size <= capacity {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da := items[order[a]].Weight / float64(items[order[a]].Size)
		db := items[order[b]].Weight / float64(items[order[b]].Size)
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	var chosen []int
	var used int64
	for _, i := range order {
		if used+items[i].Size <= capacity {
			chosen = append(chosen, i)
			used += items[i].Size
		}
	}
	sort.Ints(chosen)
	return chosen
}

// BruteForce enumerates all subsets; only usable for small item counts.
// It is the oracle the property tests compare the DP against.
func BruteForce(items []Item, capacity int64) []int {
	n := len(items)
	if n > 20 {
		panic("placement: BruteForce beyond 20 items")
	}
	bestW, bestMask := 0.0, 0
	for mask := 0; mask < 1<<n; mask++ {
		var size int64
		var w float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size += items[i].Size
				w += items[i].Weight
			}
		}
		if size <= capacity && w > bestW {
			bestW, bestMask = w, mask
		}
	}
	var chosen []int
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			chosen = append(chosen, i)
		}
	}
	return chosen
}

// TotalWeight sums the weights of the chosen indices.
func TotalWeight(items []Item, chosen []int) float64 {
	var w float64
	for _, i := range chosen {
		w += items[i].Weight
	}
	return w
}

// TotalSize sums the sizes of the chosen indices.
func TotalSize(items []Item, chosen []int) int64 {
	var s int64
	for _, i := range chosen {
		s += items[i].Size
	}
	return s
}

// TierUsedBytes sums the bytes assigned to each tier.
func TierUsedBytes(items []TierItem, assign []int, nt int) []int64 {
	used := make([]int64, nt)
	for i, t := range assign {
		used[t] += items[i].Size
	}
	return used
}
