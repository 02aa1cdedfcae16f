package heap

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/task"
)

// This file retains the pre-SoA reference layout (objState →
// chunkState → allocs pointer-chasing) verbatim. With SetShadowCheck on
// (export_test.go), every State carries a refState shadow and
// cross-checks the two representations observable-by-observable after
// the build and after every Move. It is the planAudit-style transition
// hook for the struct-of-arrays refactor: equivalence tests flip it on
// and run whole simulations; any divergence surfaces as a heap error,
// which fails the run loudly.

// refChunk is one chunk's residency in the reference layout.
type refChunk struct {
	size   int64
	tier   mem.Tier
	allocs []alloc
}

// refObj tracks an object's partitioning and chunk residency.
type refObj struct {
	size   int64
	chunks []refChunk
}

// refState is the frozen pre-SoA State: per-object chunk slices with
// per-chunk piece slices, and its own allocators. Its build and move
// logic reproduce the original implementation exactly, so comparing it
// against the SoA layout checks both the data layout translation and
// the incremental accumulators.
type refState struct {
	tiers    []*FreeList
	resident []int64
	objs     []refObj
}

// newRefState lays the objects out exactly as the original NewState
// did: slice order, all chunks in NVM, fragmented allocation.
func newRefState(hms mem.HMS, objects []*task.Object, chunksFor map[task.ObjectID]int) (*refState, error) {
	nt := hms.NumTiers()
	r := &refState{
		tiers:    make([]*FreeList, nt),
		resident: make([]int64, nt),
		objs:     make([]refObj, len(objects)),
	}
	for t := range r.tiers {
		r.tiers[t] = NewFreeList(hms.Capacity(mem.Tier(t)))
	}
	for _, o := range objects {
		n := 1
		if chunksFor != nil && o.Chunkable {
			if c := chunksFor[o.ID]; c > 1 {
				n = c
			}
		}
		chunks := make([]refChunk, n)
		base := o.Size / int64(n)
		rem := o.Size - base*int64(n)
		for i := range chunks {
			sz := base
			if int64(i) < rem {
				sz++
			}
			if sz == 0 {
				sz = 1 // degenerate: more chunks than bytes
			}
			allocs, err := allocFragmented(r.tiers[mem.InNVM], sz)
			if err != nil {
				return nil, fmt.Errorf("heap: ref placing %q in NVM: %w", o.Name, err)
			}
			chunks[i] = refChunk{size: sz, tier: mem.InNVM, allocs: allocs}
			r.resident[mem.InNVM] += sz
		}
		r.objs[o.ID] = refObj{size: o.Size, chunks: chunks}
	}
	return r, nil
}

// move is the original Move: allocate destination pieces, free source
// pieces, update the accumulators.
func (r *refState) move(ref ChunkRef, to mem.Tier) error {
	c := &r.objs[ref.Obj].chunks[ref.Index]
	if c.tier == to {
		return nil
	}
	src, dst := r.tiers[c.tier], r.tiers[to]
	allocs, err := allocFragmented(dst, c.size)
	if err != nil {
		return fmt.Errorf("heap: ref move %v to %v: %w", ref, to, err)
	}
	for _, a := range c.allocs {
		if err := src.Free(a.off, a.size); err != nil {
			return fmt.Errorf("heap: ref move %v released bad source range: %w", ref, err)
		}
	}
	r.resident[c.tier] -= c.size
	r.resident[to] += c.size
	c.tier, c.allocs = to, allocs
	return nil
}

// verify compares every observable of the reference layout against the
// SoA state: per-chunk tier, size, and physical pieces; per-tier
// allocator usage and resident accumulators; and the SoA per-object
// residency tables against a reference scan.
func (r *refState) verify(s *State) error {
	if len(r.tiers) != s.nt {
		return fmt.Errorf("tier count %d != %d", len(r.tiers), s.nt)
	}
	for t := range r.tiers {
		if r.tiers[t].Used() != s.tiers[t].Used() || r.tiers[t].Avail() != s.tiers[t].Avail() {
			return fmt.Errorf("tier %d allocator used/avail %d/%d != %d/%d",
				t, r.tiers[t].Used(), r.tiers[t].Avail(), s.tiers[t].Used(), s.tiers[t].Avail())
		}
		if r.resident[t] != s.resident[t] {
			return fmt.Errorf("tier %d resident %d != %d", t, r.resident[t], s.resident[t])
		}
	}
	if len(r.objs) != len(s.objSize) {
		return fmt.Errorf("object count %d != %d", len(r.objs), len(s.objSize))
	}
	for obj := range r.objs {
		o := &r.objs[obj]
		if o.size != s.objSize[obj] {
			return fmt.Errorf("object %d size %d != %d", obj, o.size, s.objSize[obj])
		}
		if len(o.chunks) != s.base[obj+1]-s.base[obj] {
			return fmt.Errorf("object %d chunk count %d != %d",
				obj, len(o.chunks), s.base[obj+1]-s.base[obj])
		}
		for i := range o.chunks {
			c := &o.chunks[i]
			ix := s.base[obj] + i
			if c.size != s.chunkSize[ix] {
				return fmt.Errorf("chunk %d size %d != %d", ix, c.size, s.chunkSize[ix])
			}
			if c.tier != s.chunkTier[ix] {
				return fmt.Errorf("chunk %d tier %v != %v", ix, c.tier, s.chunkTier[ix])
			}
			if len(c.allocs) != len(s.pieces[ix]) {
				return fmt.Errorf("chunk %d piece count %d != %d", ix, len(c.allocs), len(s.pieces[ix]))
			}
			for p, a := range c.allocs {
				if a != s.pieces[ix][p] {
					return fmt.Errorf("chunk %d piece %d %+v != %+v", ix, p, a, s.pieces[ix][p])
				}
			}
		}
		for t := 0; t < s.nt; t++ {
			var want int64
			for i := range o.chunks {
				if int(o.chunks[i].tier) == t {
					want += o.chunks[i].size
				}
			}
			if got := s.objOn[obj*s.nt+t]; got != want {
				return fmt.Errorf("object %d tier %d resident %d != %d", obj, t, got, want)
			}
		}
	}
	return nil
}
