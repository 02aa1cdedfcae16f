package core

import (
	"math/bits"
	"sort"

	"repro/internal/mem"
	"repro/internal/placement"
	"repro/internal/task"
)

// The planner is the runtime's decision core and, since the simulator
// core went incremental (PR 1), the dominant cost of every Tahoe cell.
// This file is its allocation-light implementation:
//
//   - target sets are planSet bitsets over the heap's dense global chunk
//     index instead of map[ChunkRef]bool;
//   - the hypothetical resident footprint is an int64 accumulator
//     maintained on membership change, not a rescan per task;
//   - the local search walks event-driven (localWalk): a step re-weighs
//     only the chunks whose weight can have moved and applies the
//     knapsack's all-fit answer as membership flips; a step whose
//     positive candidates overflow DRAM runs the DP directly on the
//     solver's reused scratch (placement.Solver.SolveDirect): its
//     patterns rarely repeat exactly, so a memo would cost more than it
//     saves. The global and level solves, which do repeat, memoize;
//   - per-object benefit totals persist across maybePlan calls in
//     plannerState and are refreshed only for objects dirtied since the
//     last plan (frontier advance or profile change) — O(Δ) replans;
//   - a profile change invalidates a kind's cached benefits in O(1), by
//     bumping the kind's generation; the next refresh expands the
//     invalidated kinds into dirty objects;
//   - all scratch (candidate slices, bitsets, the walk's per-object
//     state, the per-task target backing store) lives in plannerState
//     and is reused across plans.
//
// Correctness contract: every plan must be bit-identical (plan kind,
// target membership, Float64bits of predicted and solverSec) to the
// retained reference planner in plan_ref_test.go. That forbids
// shortcuts like maintaining float sums by subtraction — instead, a
// dirty object's total is re-folded from its per-object use table in
// exactly the reference's addition order. plan_equiv_test.go enforces
// the contract over randomized runs; see DESIGN.md "Planner internals".

// planSet is a set of chunks targeted for DRAM residency: a dense bitset
// over heap.State's global chunk index. nil means "no target".
type planSet []uint64

func planWords(totalChunks int) int { return (totalChunks + 63) / 64 }

func (s planSet) has(ix int) bool {
	if s == nil {
		return false
	}
	return s[ix>>6]&(1<<uint(ix&63)) != 0
}

func (s planSet) set(ix int) { s[ix>>6] |= 1 << uint(ix&63) }

func (s planSet) unset(ix int) { s[ix>>6] &^= 1 << uint(ix&63) }

func (s planSet) clearAll() {
	for i := range s {
		s[i] = 0
	}
}

func (s planSet) orWith(o planSet) {
	for i, w := range o {
		s[i] |= w
	}
}

func (s planSet) equal(o planSet) bool {
	if len(s) != len(o) {
		return false
	}
	for i, w := range s {
		if w != o[i] {
			return false
		}
	}
	return true
}

func (s planSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// containsRange reports whether all of [lo, lo+n) is set. n must be > 0.
func (s planSet) containsRange(lo, n int) bool {
	if s == nil {
		return false
	}
	hi := lo + n
	w0, w1 := lo>>6, (hi-1)>>6
	for w := w0; w <= w1; w++ {
		m := ^uint64(0)
		if w == w0 {
			m &= ^uint64(0) << uint(lo&63)
		}
		if w == w1 {
			if r := hi & 63; r != 0 {
				m &= (uint64(1) << uint(r)) - 1
			}
		}
		if s[w]&m != m {
			return false
		}
	}
	return true
}

// forEach visits the set bits in ascending index order — for chunk
// indices, ascending (object, chunk) order, matching the sorted-map
// iteration the reference enforcement paths used.
func (s planSet) forEach(fn func(ix int)) {
	for w, word := range s {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// planResult is the outcome of the placement decision step.
type planResult struct {
	kind string // "global", "local", "phase", or "static"
	// global is the single whole-run target set (global search).
	global planSet
	// perTask[taskID] is the target set when the task runs (local search).
	perTask []planSet
	// perLevel[level] is the target set per topological level (PhaseBased).
	perLevel []planSet
	// tierTo, on machines with more than two tiers (plan kind "tier"), is
	// the assigned tier per global chunk index; -1 means no opinion. The
	// fastest tier's assignees are mirrored into global.
	tierTo []mem.Tier
	// predicted is the model's estimate of the remaining execution time
	// under the plan; the runtime picks the smaller of global vs local.
	predicted float64
	// solverSec is the decision's modeled runtime cost, a model of the
	// paper's runtime rather than of this implementation: the local
	// search is charged 20 DP builds per kind plus a lookup per item,
	// as if same-kind tasks' knapsacks were answered from a table.
	solverSec float64
}

// objUse is one access entry to an object: the task and its kind index.
// An object's uses are stored in (task, access-position) order — the
// exact order the reference's objBenefitTotals adds benefits in, so a
// per-object re-fold reproduces its float sum bit for bit.
type objUse struct {
	task int32
	kind int32
}

// plannerState is the incremental planning state a runner keeps for the
// profiling policies (Tahoe, PhaseBased). Everything here is derived
// from the graph, the heap's chunk index, and the profiler; it persists
// across maybePlan calls so a replan touches only what changed.
type plannerState struct {
	words int // bitset words per planSet
	nobj  int
	nk    int

	kindNames []string
	kindIx    map[string]int32
	kindOf    []int32 // per task: index into kindNames

	chunkSize []int64 // per global chunk index (immutable)

	uses     [][]objUse        // per object: future-relevant access entries
	kindObjs [][]task.ObjectID // per kind: distinct objects it touches

	// futureUses[obj] counts access entries among not-yet-started tasks;
	// decremented as tasks start. Integer, hence exactly the reference's
	// per-plan recount.
	futureUses []int32

	// Per-(kind, object) benefit cache: benefitPerExec is pure given the
	// profiler's state for the kind, so entries are invalidated whenever
	// the kind records a profile or is marked stale. An entry is valid
	// while its pairGen equals its kind's kindGen; invalidating a kind
	// bumps kindGen, dropping all its entries at once.
	pairB   []float64 // nk * nobj
	pairGen []uint64  // nk * nobj
	kindGen []uint64  // per kind, starts at 1 so zeroed pairGen is stale

	// Persistent per-object benefit totals over unstarted tasks, plus the
	// dirty sets driving O(Δ) refresh: objects whose future changed, and
	// kinds whose benefits changed (expanded into their objects at the
	// next refresh).
	totals    []float64
	objDirty  []bool
	dirty     []task.ObjectID
	kindDirty []bool
	dirtyKind []int32

	// Local-walk state, reset by every local plan (see localWalk): each
	// object's average benefit per future use, its users in the walk's
	// lookahead window, and its chunks in the hypothetical residency;
	// the partly-resident objects (0 < resCnt < chunks; removed lazily);
	// the objects to re-weigh at the next step and the membership flips
	// of the current one. chunkCells is each chunk's DP size in cells.
	perUse     []float64
	ahead      []int32
	resCnt     []int32
	partly     []task.ObjectID
	inPartly   []bool
	reweigh    []task.ObjectID
	flips      []int
	chunkCells []int
	// localDP counts the last local plan's steps whose positive
	// candidates overflowed DRAM and went to the knapsack DP.
	localDP int

	// kindDur is each kind's duration estimate for the current plan
	// (estTaskSec), filled once per plan by fillKindDur.
	kindDur []float64

	solver *placement.Solver

	// Scratch reused across plans.
	future   []*task.Task
	items    []placement.Item
	accObjs  []task.ObjectID
	candObjs []task.ObjectID
	resObjs  []task.ObjectID
	objMark  []bool
	kindMark []bool
	resident planSet
	keep     planSet // proactiveScan window union
	seen     planSet // proactiveScan dedup
	wants    []wantPromo
	// skip[i], for a started task i, bounds a run of started tasks: all
	// of [i, skip[i]) have started (unstartedFrom). Allocated by the
	// first proactive scan.
	skip []int32
	// victims[t] is makeRoomOn's candidate scratch for tier t; its
	// recursion only descends, so each tier's buffer has one user.
	victims [][]victim

	// Plan storage, overwritten by the next plan: the global target, the
	// per-task view table and its flat backing buffer (consecutive tasks
	// with identical targets alias one committed copy).
	globalBuf planSet
	perTask   []planSet
	taskBuf   []uint64
}

type wantPromo struct {
	ix  int // global chunk index
	obj task.ObjectID
	id  task.TaskID
}

// newPlannerState builds the planner's derived tables. All objects start
// dirty; the first plan folds every total once.
func newPlannerState(r *runner) *plannerState {
	g, st := r.g, r.st
	nobj := len(g.Objects)
	nk := len(r.kindList)
	total := st.TotalChunks()
	p := &plannerState{
		words:      planWords(total),
		nobj:       nobj,
		nk:         nk,
		kindNames:  r.kindList,
		kindIx:     make(map[string]int32, nk),
		kindOf:     make([]int32, len(g.Tasks)),
		chunkSize:  make([]int64, total),
		uses:       make([][]objUse, nobj),
		kindObjs:   make([][]task.ObjectID, nk),
		futureUses: make([]int32, nobj),
		pairB:      make([]float64, nk*nobj),
		pairGen:    make([]uint64, nk*nobj),
		kindGen:    make([]uint64, nk),
		totals:     make([]float64, nobj),
		objDirty:   make([]bool, nobj),
		kindDirty:  make([]bool, nk),
		perUse:     make([]float64, nobj),
		ahead:      make([]int32, nobj),
		resCnt:     make([]int32, nobj),
		inPartly:   make([]bool, nobj),
		chunkCells: make([]int, total),
		kindDur:    make([]float64, nk),
		victims:    make([][]victim, st.NumTiers()),
		solver:     placement.NewSolver(),
		objMark:    make([]bool, nobj),
		kindMark:   make([]bool, nk),
	}
	for i, k := range p.kindNames {
		p.kindIx[k] = int32(i)
		p.kindGen[i] = 1
	}
	for ix := 0; ix < total; ix++ {
		p.chunkSize[ix] = st.ChunkSize(st.RefAt(ix))
		p.chunkCells[ix] = placement.Cells(p.chunkSize[ix], placement.DefaultGranularity)
	}
	// Use tables: count, then fill flat, preserving (task, access) order.
	counts := make([]int32, nobj)
	for _, t := range g.Tasks {
		p.kindOf[t.ID] = int32(g.KindIndex(t.ID))
		for _, a := range t.Accesses {
			counts[a.Obj]++
		}
	}
	var flatTotal int32
	for _, c := range counts {
		flatTotal += c
	}
	flat := make([]objUse, flatTotal)
	offs := make([]int32, nobj)
	var off int32
	for obj, c := range counts {
		p.uses[obj] = flat[off : off+c : off+c]
		offs[obj] = off
		off += c
	}
	pairMark := make([]bool, nk*nobj)
	for _, t := range g.Tasks {
		k := p.kindOf[t.ID]
		for _, a := range t.Accesses {
			flat[offs[a.Obj]] = objUse{task: int32(t.ID), kind: k}
			offs[a.Obj]++
			p.futureUses[a.Obj]++
			if ix := int(k)*nobj + int(a.Obj); !pairMark[ix] {
				pairMark[ix] = true
				p.kindObjs[k] = append(p.kindObjs[k], a.Obj)
			}
		}
	}
	p.dirty = make([]task.ObjectID, 0, nobj)
	for obj := 0; obj < nobj; obj++ {
		p.objDirty[obj] = true
		p.dirty = append(p.dirty, task.ObjectID(obj))
	}
	p.resident = make(planSet, p.words)
	p.keep = make(planSet, p.words)
	p.seen = make(planSet, p.words)
	p.globalBuf = make(planSet, p.words)
	p.perTask = make([]planSet, len(g.Tasks))
	return p
}

// markDirty queues an object's total for re-folding at the next plan.
func (p *plannerState) markDirty(obj task.ObjectID) {
	if !p.objDirty[obj] {
		p.objDirty[obj] = true
		p.dirty = append(p.dirty, obj)
	}
}

// taskStarted records a task's start: its access entries leave the
// future, dirtying the touched objects.
func (p *plannerState) taskStarted(t *task.Task) {
	for _, a := range t.Accesses {
		p.futureUses[a.Obj]--
		p.markDirty(a.Obj)
	}
}

// invalidateKind drops the kind's cached benefits and queues every
// object it touches for re-folding — called when the kind records a
// profile (estimates are running means, so every Record shifts them) or
// is marked stale. It runs on every task completion, so it does O(1)
// work: a generation bump, and the kind joins the dirty-kind list that
// refreshTotals expands.
func (p *plannerState) invalidateKind(k int32) {
	p.kindGen[k]++
	if !p.kindDirty[k] {
		p.kindDirty[k] = true
		p.dirtyKind = append(p.dirtyKind, k)
	}
}

// invalidateKindName is invalidateKind for callers holding the name.
func (p *plannerState) invalidateKindName(kind string) {
	if k, ok := p.kindIx[kind]; ok {
		p.invalidateKind(k)
	}
}

// benefit is the cached benefitPerExec for a (kind, object) pair and
// the fastest tier. Cached values were produced by the same pure
// computation on the same profiler state, so they are bit-identical to
// a fresh call.
func (p *plannerState) benefit(r *runner, k int32, obj task.ObjectID) float64 {
	ix := int(k)*p.nobj + int(obj)
	if p.pairGen[ix] != p.kindGen[k] {
		p.pairB[ix] = r.benefitPerExec(p.kindNames[k], obj, r.fastTier)
		p.pairGen[ix] = p.kindGen[k]
	}
	return p.pairB[ix]
}

// refreshTotals re-folds the totals of dirty objects, after dirtying
// every object of each invalidated kind. Each fold adds the object's
// future uses in (task, access-position) order — the reference sum's
// exact addition order — and is independent of the others, so the
// result is bit-identical to a full recompute whatever the dirty-list
// order, while touching only Δ objects.
func (p *plannerState) refreshTotals(r *runner) {
	for _, k := range p.dirtyKind {
		p.kindDirty[k] = false
		for _, obj := range p.kindObjs[k] {
			p.markDirty(obj)
		}
	}
	p.dirtyKind = p.dirtyKind[:0]
	for _, obj := range p.dirty {
		p.objDirty[obj] = false
		var sum float64
		for _, u := range p.uses[obj] {
			if r.started[u.task] {
				continue
			}
			sum += p.benefit(r, u.kind, obj)
		}
		p.totals[obj] = sum
	}
	p.dirty = p.dirty[:0]
}

// benefitPerExec returns the modeled seconds saved per execution of kind
// if obj lived on tier `to` instead of the slow default tier 0, using
// the sampled profile and the equation-(1) bandwidth consumption
// estimate (model.BenefitProfiled). With feedback enabled the result
// passes through the CorrectedEstimates view — this is the single choke
// point every planner (incremental, reference, N-tier) funnels through,
// so corrections reach all of them identically and the planAudit
// bit-identity contract holds.
func (r *runner) benefitPerExec(kind string, obj task.ObjectID, to mem.Tier) float64 {
	est, ok := r.profiler.EstimateFor(kind, obj, r.g.Object(obj).Size)
	if !ok {
		return 0
	}
	b := r.params.BenefitProfiled(est.Loads, est.Stores, est.BWCons, mem.InNVM, to)
	if r.fb != nil {
		b = r.fbView.Apply(int(r.pt.kindIx[kind]), obj, b)
	}
	return b
}

// meanTaskSec is the runtime's estimate of one task's duration, from
// profiled means; used to convert task-count distances into time. Kinds
// are visited in the graph's stable first-appearance order: float
// accumulation is order-sensitive, and both planners (and run-to-run
// determinism) depend on a fixed order.
func (r *runner) meanTaskSec() float64 {
	var sum float64
	var n int
	for ki, kind := range r.kindList {
		if d, ok := r.profiler.MeanDuration(kind); ok {
			cnt := r.kindTotal[ki]
			sum += d * float64(cnt)
			n += cnt
		}
	}
	if n == 0 {
		return 1e-6
	}
	return sum / float64(n)
}

// overlapSec estimates the execution time available to hide a migration
// that becomes dependence-safe after task `from` and is needed by task
// `to`: the submission-order distance between them, spread over the
// workers, at the mean task duration. from < 0 means "safe immediately".
func (r *runner) overlapSec(from, to task.TaskID) float64 {
	return r.overlapSecAt(from, to, r.meanTaskSec())
}

// overlapSecAt is overlapSec at a given mean task duration, for callers
// that hold the profiler fixed across many calls.
func (r *runner) overlapSecAt(from, to task.TaskID, meanSec float64) float64 {
	gap := int(to) - int(from) - 1
	if from < 0 {
		gap = int(to)
	}
	if gap < 0 {
		gap = 0
	}
	return float64(gap) / float64(r.cfg.Workers) * meanSec
}

// fillKindDur caches, for one plan, each kind's duration estimate: its
// profiled mean, or the all-kind mean while the kind has none. A plan
// changes no profile, so estTaskSec reads the table instead of a
// string-keyed profiler lookup per task.
func (p *plannerState) fillKindDur(r *runner) {
	mean := r.meanTaskSec()
	for k, kind := range p.kindNames {
		d, ok := r.profiler.MeanDuration(kind)
		if !ok {
			d = mean
		}
		p.kindDur[k] = d
	}
}

// estTaskSec predicts a task's duration under a target set: the profiled
// mean minus the modeled benefit of every fully targeted object it
// touches (the bitset equivalent of targetFraction == 1). The plan
// calling it must have run fillKindDur.
func (r *runner) estTaskSec(t *task.Task, target planSet) float64 {
	p := r.pt
	k := p.kindOf[t.ID]
	dur := p.kindDur[k]
	for _, a := range t.Accesses {
		if target.containsRange(r.st.ChunkBase(a.Obj), r.st.Chunks(a.Obj)) {
			dur -= p.benefit(r, k, a.Obj)
		}
	}
	if dur < 0 {
		dur = 0
	}
	return dur
}

// computeGlobalPlan runs the cross-phase (whole-graph) search: one
// knapsack over every object's chunks, weighing each chunk by the total
// remaining benefit minus a one-time migration cost, then predicts the
// remaining execution time under the winning set.
func (r *runner) computeGlobalPlan(future []*task.Task) planResult {
	p := r.pt
	p.refreshTotals(r)
	p.fillKindDur(r)
	meanSec := r.meanTaskSec()
	items := r.globalItems(p.items[:0], meanSec)
	p.items = items
	chosen := p.solver.Solve(items, r.cfg.HMS.DRAMCapacity, placement.DefaultGranularity)
	target := p.globalBuf
	target.clearAll()
	for _, i := range chosen {
		target.set(r.st.ChunkIndex(items[i].Ref))
	}
	predicted := 0.0
	for _, t := range future {
		predicted += r.estTaskSec(t, target)
	}
	predicted /= float64(r.cfg.Workers)
	// One-time migration exposure: copy time beyond what early execution
	// can hide.
	var copySec float64
	for _, i := range chosen {
		if r.st.Tier(items[i].Ref) != r.fastTier {
			copySec += float64(items[i].Size) / r.cfg.HMS.CopyBW
		}
	}
	hide := float64(min(len(future), r.cfg.Lookahead)) * meanSec / float64(r.cfg.Workers)
	if exposed := copySec - hide; exposed > 0 {
		predicted += exposed
	}
	return planResult{kind: "global", global: target, predicted: predicted,
		solverSec: float64(len(items)) * solverItemSec}
}

// globalItems appends the global knapsack's items to items: every chunk
// of every object with a nonzero refreshed total, weighing the object's
// remaining benefit split over its chunks minus a one-time migration
// cost for chunks not yet on the fastest tier. meanSec is the plan's
// mean task duration.
func (r *runner) globalItems(items []placement.Item, meanSec float64) []placement.Item {
	p := r.pt
	// The promotion is enqueued at plan time, so the hiding window runs
	// from the frontier to the object's first future user.
	from := r.frontier() - 1
	for _, o := range r.g.Objects {
		benefit := p.totals[o.ID]
		if benefit == 0 {
			continue
		}
		refs := r.st.Refs(o.ID)
		per := benefit / float64(len(refs))
		base := r.st.ChunkBase(o.ID)
		firstUse := task.TaskID(len(r.g.Tasks))
		if nu, ok := r.g.NextUser(o.ID, from); ok {
			firstUse = nu
		}
		overlap := r.overlapSecAt(from, firstUse, meanSec)
		for i, ref := range refs {
			size := p.chunkSize[base+i]
			cost := 0.0
			if r.st.TierAt(base+i) != r.fastTier {
				cost = r.params.MigrationCost(size, overlap, mem.InNVM, r.fastTier)
			}
			items = append(items, placement.Item{Ref: ref, Size: size, Weight: per - cost})
		}
	}
	return items
}

// insertionSortObjs sorts a small object-ID slice in place.
func insertionSortObjs(s []task.ObjectID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// mergeObjs merges two sorted, duplicate-free object lists into dst.
func mergeObjs(dst, a, b []task.ObjectID) []task.ObjectID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// computeLocalPlan runs the per-task (phase-local) search: walk the
// future tasks in submission order, maintaining a hypothetical DRAM
// content, and solve a knapsack per task over the chunks it touches
// *plus* the chunks hypothetically resident — so every decision weighs
// newcomers against incumbents with the same currency. A chunk's weight
// is its object's average per-use benefit times the object's uses within
// the lookahead horizon, minus migration and eviction costs for
// non-residents — the paper's task-by-task decision with known DRAM
// contents.
//
// The walk is event-driven (localWalk): it re-weighs only the chunks
// whose weight can have changed since the previous task, and when every
// positive candidate fits — the knapsack's all-fit case, which is nearly
// every task — applies the resulting membership flips directly. Only a
// step whose positive candidates overflow DRAM builds the full candidate
// list and runs the DP (Solver.SolveDirect, bypassing the memo).
func (r *runner) computeLocalPlan(future []*task.Task) planResult {
	p := r.pt
	p.refreshTotals(r)
	p.fillKindDur(r)
	w := localWalk{r: r, p: p, resident: p.resident, capacity: r.cfg.HMS.DRAMCapacity,
		meanSec: r.meanTaskSec()}
	w.cells = int(w.capacity / placement.DefaultGranularity)
	w.horizon = 8 * r.cfg.Lookahead
	if w.horizon < 64 {
		w.horizon = 64
	}
	// The walk changes neither the totals, the future use counts, nor the
	// profile, so per-use benefits are fixed for the whole plan.
	for obj, n := range p.futureUses {
		pu := 0.0
		if n > 0 {
			pu = p.totals[obj] / float64(n)
		}
		p.perUse[obj] = pu
	}
	w.reset()

	if len(p.perTask) < len(r.g.Tasks) {
		p.perTask = make([]planSet, len(r.g.Tasks))
	}
	perTask := p.perTask
	clear(perTask)
	p.taskBuf = p.taskBuf[:0]
	var prev planSet // last committed distinct target

	clear(p.kindMark)
	predicted := 0.0
	items := 0
	kinds := 0
	for step, t := range future {
		if k := p.kindOf[t.ID]; !p.kindMark[k] {
			p.kindMark[k] = true
			kinds++
		}
		w.slide(int(t.ID))
		same := false
		if step == 0 {
			items += w.solve(t)
		} else if n, fits := w.weigh(t); fits {
			items += n
			same = len(p.flips) == 0
			w.applyFlips()
		} else {
			p.localDP++
			items += w.solve(t)
			same = prev.equal(w.resident)
		}

		// Commit the target view, aliasing runs of identical targets.
		if !same {
			off := len(p.taskBuf)
			p.taskBuf = append(p.taskBuf, w.resident...)
			prev = planSet(p.taskBuf[off : off+p.words])
		}
		perTask[t.ID] = prev
		predicted += r.estTaskSec(t, w.resident)
	}
	w.finish()
	predicted /= float64(r.cfg.Workers)
	return planResult{kind: "local", perTask: perTask, predicted: predicted,
		solverSec: float64(kinds)*20*solverItemSec + float64(items)*solverLookupSec}
}

// localWalk is one local plan's walk state. Its invariant, after every
// step: resident is exactly the set the knapsack chose for the step's
// task (bytes, resCells and resChunks are integer sums over it), and
// every resident chunk either still passes the knapsack's candidate
// filter at its resident weight or belongs to an object queued in
// p.reweigh for the next step.
//
// Why re-weighing only some chunks reproduces the full per-task solve
// bit for bit: a resident chunk's weight, perUse·ahead/chunks, changes
// only when its object's window count moves, and the walk re-weighs
// exactly those residents, plus chunks that just became resident (they
// were weighed as newcomers). A non-resident chunk's weight depends on
// the task and the resident bytes, so every non-resident candidate — the
// task's own objects and the partly-resident objects' remaining chunks —
// is re-weighed every step. Every weight comes from the same expressions
// as the full candidate build (solve), and when the positive candidates
// fit, the knapsack's answer is exactly that set (its all-fit case), so
// the flips reproduce it; otherwise solve runs the full build and the DP.
type localWalk struct {
	r        *runner
	p        *plannerState
	resident planSet

	capacity int64
	cells    int // the knapsack's capacity in DP cells
	horizon  int
	meanSec  float64

	// lo, hi bound the window (lo, hi] that p.ahead counts: the users of
	// each object among tasks lo+1..hi, started or not.
	lo, hi int

	// Sums over the residency. Residents are chosen, so their objects
	// are candidates (positive per-use benefit), and resChunks is the
	// residents' share of a step's candidate count.
	bytes     int64 // resident bytes
	resCells  int   // resident DP cells
	resChunks int   // chunks of objects with a resident chunk
}

// reset loads the heap's fastest-tier residency and empties the window
// and the per-object walk state.
func (w *localWalk) reset() {
	r, p := w.r, w.p
	w.resident.clearAll()
	w.bytes = 0
	for ix := range p.chunkSize {
		if r.st.TierAt(ix) == r.fastTier {
			w.resident.set(ix)
			w.bytes += p.chunkSize[ix]
		}
	}
	clear(p.ahead)
	clear(p.resCnt)
	for _, obj := range p.partly {
		p.inPartly[obj] = false
	}
	p.partly = p.partly[:0]
	p.localDP = 0
	w.lo, w.hi = -1, -1
}

// finish releases the marks still held by the next-step queue.
func (w *localWalk) finish() {
	p := w.p
	for _, obj := range p.reweigh {
		p.objMark[obj] = false
	}
	p.reweigh = p.reweigh[:0]
}

// queue adds obj to the next weighing, once.
func (w *localWalk) queue(obj task.ObjectID) {
	p := w.p
	if !p.objMark[obj] {
		p.objMark[obj] = true
		p.reweigh = append(p.reweigh, obj)
	}
}

// slide moves the window to (t, t+horizon], clamped to the graph:
// tasks in (lo, min(t, hi)] leave it and tasks in (max(hi, t),
// t+horizon] join it. Each task counts once per distinct object, and a
// resident object whose count moves is queued for re-weighing.
func (w *localWalk) slide(t int) {
	newHi := min(t+w.horizon, len(w.r.g.Tasks)-1)
	if w.lo < 0 {
		w.lo, w.hi = t, t
	}
	for id := w.lo + 1; id <= min(t, w.hi); id++ {
		w.count(id, -1)
	}
	for id := max(w.hi, t) + 1; id <= newHi; id++ {
		w.count(id, 1)
	}
	w.lo, w.hi = t, newHi
}

func (w *localWalk) count(id int, d int32) {
	p := w.p
	t := w.r.g.Task(task.TaskID(id))
	for i, a := range t.Accesses {
		if !firstTouch(t, i) {
			continue
		}
		p.ahead[a.Obj] += d
		if p.resCnt[a.Obj] > 0 {
			w.queue(a.Obj)
		}
	}
}

// each is a chunk of obj's resident weight: the object's per-use benefit
// times its uses in the window, split over its chunks.
func (w *localWalk) each(obj task.ObjectID, pu float64) float64 {
	return pu * float64(w.p.ahead[obj]) / float64(w.r.st.Chunks(obj))
}

// overlap is the time available to hide obj's promotion for task t: the
// distance from obj's previous user (or the run's start) to t.
func (w *localWalk) overlap(obj task.ObjectID, t task.TaskID) float64 {
	from := task.TaskID(-1)
	if pu, ok := w.r.g.PrevUser(obj, t); ok {
		from = pu
	}
	return w.r.overlapSecAt(from, t, w.meanSec)
}

// newcomer is a non-resident chunk's weight: its resident weight less
// the migration cost its overlap cannot hide, and less the paper's
// extra_COST (demote just enough) when it would not fit beside the
// residents.
func (w *localWalk) newcomer(each float64, size int64, overlap float64) float64 {
	wt := each
	wt -= w.r.params.MigrationCost(size, overlap, mem.InNVM, w.r.fastTier)
	if w.bytes+size > w.capacity {
		wt -= float64(size) / w.r.cfg.HMS.CopyBW
	}
	return wt
}

// candidate reports whether the knapsack considers a chunk at weight wt.
func (w *localWalk) candidate(ix int, wt float64) bool {
	return placement.Admissible(wt, w.p.chunkSize[ix], w.p.chunkCells[ix], w.cells)
}

// weigh re-weighs task t's step: the queued objects (residents whose
// window count moved, chunks that became resident last step), t's own
// objects and the partly-resident objects. It records the membership
// flips in p.flips and returns the step's candidate-chunk count and
// whether every positive candidate fits, so the flips are the knapsack's
// answer. It reads the residency the previous step left.
func (w *localWalk) weigh(t *task.Task) (items int, fits bool) {
	r, p := w.r, w.p
	for _, a := range t.Accesses {
		w.queue(a.Obj)
	}
	k := 0
	for _, obj := range p.partly {
		if c := int(p.resCnt[obj]); c == 0 || c == r.st.Chunks(obj) {
			p.inPartly[obj] = false
			continue
		}
		p.partly[k] = obj
		k++
		w.queue(obj)
	}
	p.partly = p.partly[:k]

	items = w.resChunks
	cells := w.resCells
	flips := p.flips[:0]
	for _, obj := range p.reweigh {
		p.objMark[obj] = false
		base, n := r.st.ChunkBase(obj), r.st.Chunks(obj)
		pu := p.perUse[obj]
		if pu <= 0 {
			continue // not a candidate, so never chosen and never resident
		}
		if p.resCnt[obj] == 0 {
			items += n // one of t's objects joins the candidates
		}
		each := w.each(obj, pu)
		overlap, haveOverlap := 0.0, false
		for ix := base; ix < base+n; ix++ {
			if w.resident.has(ix) {
				if !w.candidate(ix, each) {
					flips = append(flips, ix)
					cells -= p.chunkCells[ix]
				}
				continue
			}
			if !haveOverlap {
				overlap, haveOverlap = w.overlap(obj, t.ID), true
			}
			if w.candidate(ix, w.newcomer(each, p.chunkSize[ix], overlap)) {
				flips = append(flips, ix)
				cells += p.chunkCells[ix]
			}
		}
	}
	p.reweigh = p.reweigh[:0]
	p.flips = flips
	return items, cells <= w.cells
}

// applyFlips toggles the flipped chunks' membership, keeping the running
// sums and the partly-resident list, and queues the objects that gained
// chunks for re-weighing as residents next step.
func (w *localWalk) applyFlips() {
	r, p := w.r, w.p
	for _, ix := range p.flips {
		obj := r.st.RefAt(ix).Obj
		n := r.st.Chunks(obj)
		if w.resident.has(ix) {
			w.resident.unset(ix)
			w.bytes -= p.chunkSize[ix]
			w.resCells -= p.chunkCells[ix]
			p.resCnt[obj]--
			if p.resCnt[obj] == 0 {
				w.resChunks -= n
			}
		} else {
			w.resident.set(ix)
			w.bytes += p.chunkSize[ix]
			w.resCells += p.chunkCells[ix]
			if p.resCnt[obj] == 0 {
				w.resChunks += n
			}
			p.resCnt[obj]++
			w.queue(obj)
		}
		if c := int(p.resCnt[obj]); c > 0 && c < n && !p.inPartly[obj] {
			p.inPartly[obj] = true
			p.partly = append(p.partly, obj)
		}
	}
}

// solve is the full per-task step: build t's candidate list in ascending
// (object, chunk) order — t's objects merged with the residents, read
// off the bitset — solve it, and rebuild the walk state from the chosen
// set. Every resident is queued for re-weighing next step. It returns
// the candidate count.
func (w *localWalk) solve(t *task.Task) int {
	r, p := w.r, w.p
	resObjs := p.resObjs[:0]
	for wi, word := range w.resident {
		for word != 0 {
			obj := r.st.RefAt(wi<<6 + bits.TrailingZeros64(word)).Obj
			if len(resObjs) == 0 || resObjs[len(resObjs)-1] != obj {
				resObjs = append(resObjs, obj)
			}
			word &= word - 1
		}
	}
	acc := p.accObjs[:0]
	for i, a := range t.Accesses {
		if firstTouch(t, i) {
			acc = append(acc, a.Obj)
		}
	}
	insertionSortObjs(acc)
	p.accObjs = acc
	candObjs := mergeObjs(p.candObjs[:0], acc, resObjs)
	p.candObjs = candObjs

	cand := p.items[:0]
	for _, obj := range candObjs {
		pu := p.perUse[obj]
		if pu <= 0 {
			continue
		}
		refs := r.st.Refs(obj)
		each := w.each(obj, pu)
		base := r.st.ChunkBase(obj)
		overlap, haveOverlap := 0.0, false
		for i, ref := range refs {
			size := p.chunkSize[base+i]
			wt := each
			if !w.resident.has(base + i) {
				if !haveOverlap {
					overlap, haveOverlap = w.overlap(obj, t.ID), true
				}
				wt = w.newcomer(each, size, overlap)
			}
			cand = append(cand, placement.Item{Ref: ref, Size: size, Weight: wt})
		}
	}
	p.items = cand
	chosen := p.solver.SolveDirect(cand, w.capacity, placement.DefaultGranularity)

	// The knapsack owns the residency decision: incumbents it did not
	// re-choose are hypothetically demoted.
	for _, obj := range resObjs {
		p.resCnt[obj] = 0
	}
	p.resObjs = resObjs
	w.resident.clearAll()
	w.bytes, w.resCells, w.resChunks = 0, 0, 0
	for _, i := range chosen {
		it := &cand[i]
		ix := r.st.ChunkIndex(it.Ref)
		w.resident.set(ix)
		w.bytes += it.Size
		w.resCells += p.chunkCells[ix]
		if p.resCnt[it.Ref.Obj] == 0 {
			w.resChunks += r.st.Chunks(it.Ref.Obj)
			w.queue(it.Ref.Obj)
		}
		p.resCnt[it.Ref.Obj]++
	}
	for _, obj := range p.partly {
		p.inPartly[obj] = false
	}
	p.partly = p.partly[:0]
	for _, obj := range p.reweigh {
		if int(p.resCnt[obj]) < r.st.Chunks(obj) {
			p.inPartly[obj] = true
			p.partly = append(p.partly, obj)
		}
	}
	return len(cand)
}

// computeLevelPlan is the PhaseBased comparator: one knapsack per
// topological level over the objects its tasks touch, enforced at level
// boundaries. PhaseBased plans at most maxReplans+1 times per run, so
// this path keeps the simple per-call allocations; it still shares the
// bitset representation, the benefit cache, and the memoizing solver.
func (r *runner) computeLevelPlan(future []*task.Task) planResult {
	p := r.pt
	p.fillKindDur(r)
	levels := r.levels
	maxLevel := 0
	for _, lv := range levels {
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	perLevel := make([]planSet, maxLevel+1)
	items := 0
	predicted := 0.0
	byLevel := make([][]*task.Task, maxLevel+1)
	for _, t := range future {
		byLevel[levels[t.ID]] = append(byLevel[levels[t.ID]], t)
	}
	// Hypothetical residency carried across levels: promoting an object
	// that is already resident from the previous level costs nothing, so
	// stable hot sets stay put instead of bouncing at every boundary.
	resident := make(planSet, p.words)
	for _, o := range r.g.Objects {
		base := r.st.ChunkBase(o.ID)
		for i, ref := range r.st.Refs(o.ID) {
			if r.st.Tier(ref) == r.fastTier {
				resident.set(base + i)
			}
		}
	}
	agg := make([]float64, p.nobj)
	for lv, tasks := range byLevel {
		if len(tasks) == 0 {
			continue
		}
		// Aggregate benefit per object over the level's tasks, visited in
		// ascending object order (see plan_ref_test.go on determinism).
		objs := make([]task.ObjectID, 0, 8)
		for _, t := range tasks {
			k := p.kindOf[t.ID]
			for _, a := range t.Accesses {
				if !p.objMark[a.Obj] {
					p.objMark[a.Obj] = true
					objs = append(objs, a.Obj)
				}
				agg[a.Obj] += p.benefit(r, k, a.Obj)
			}
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		var cand []placement.Item
		for _, obj := range objs {
			benefit := agg[obj]
			if benefit <= 0 {
				continue
			}
			refs := r.st.Refs(obj)
			each := benefit / float64(len(refs))
			base := r.st.ChunkBase(obj)
			for i, ref := range refs {
				size := p.chunkSize[base+i]
				w := each
				if !resident.has(base + i) {
					w -= r.params.MigrationCost(size, 0, mem.InNVM, r.fastTier)
				}
				cand = append(cand, placement.Item{Ref: ref, Size: size, Weight: w})
			}
		}
		for _, obj := range objs { // reset scratch for the next level
			p.objMark[obj] = false
			agg[obj] = 0
		}
		items += len(cand)
		chosen := p.solver.Solve(cand, r.cfg.HMS.DRAMCapacity, placement.DefaultGranularity)
		if len(chosen) == 0 {
			// No opinion: keep whatever is resident rather than flushing.
			for _, t := range tasks {
				predicted += r.estTaskSec(t, resident)
			}
			continue
		}
		target := make(planSet, p.words)
		for _, i := range chosen {
			ix := r.st.ChunkIndex(cand[i].Ref)
			target.set(ix)
			// Enforcement only demotes to make room, so residency grows to
			// the union (capacity permitting); mirror that optimistically.
			resident.set(ix)
		}
		perLevel[lv] = target
		for _, t := range tasks {
			predicted += r.estTaskSec(t, resident)
		}
	}
	predicted /= float64(r.cfg.Workers)
	return planResult{kind: "phase", perLevel: perLevel, predicted: predicted,
		solverSec: float64(len(perLevel))*solverItemSec + float64(items)*solverLookupSec}
}

// Modeled solver cost constants (the simulated runtime's, not this
// host's): the DP pays per candidate item; repeated patterns pay a table
// lookup.
const (
	solverItemSec   = 20e-6
	solverLookupSec = 0.5e-6
)
