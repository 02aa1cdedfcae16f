package task

import (
	"fmt"
	"sort"
)

// Builder constructs a Graph from a sequential stream of object
// declarations and task submissions, inferring dependences from access
// modes the way task-parallel runtimes do:
//
//   - a reader depends on the object's last writer (read-after-write);
//   - a writer depends on the object's last writer (write-after-write)
//     and on every reader since (write-after-read).
//
// Transitively implied edges are still recorded only once per pair.
type Builder struct {
	g *Graph

	lastWriter   map[ObjectID]TaskID
	readersSince map[ObjectID][]TaskID
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		g:            &Graph{Name: name},
		lastWriter:   make(map[ObjectID]TaskID),
		readersSince: make(map[ObjectID][]TaskID),
	}
}

// Object declares a data object and returns its ID.
func (b *Builder) Object(name string, size int64) ObjectID {
	return b.ObjectOpt(name, size, true)
}

// ObjectOpt declares a data object with explicit chunkability.
func (b *Builder) ObjectOpt(name string, size int64, chunkable bool) ObjectID {
	id := ObjectID(len(b.g.Objects))
	b.g.Objects = append(b.g.Objects, &Object{ID: id, Name: name, Size: size, Chunkable: chunkable})
	b.g.usersOf = append(b.g.usersOf, nil)
	return id
}

// Submit appends a task, infers its dependences, and returns its ID.
// The Accesses slice is retained; callers must not reuse it.
func (b *Builder) Submit(kind string, cpuSec float64, accesses []Access, run func()) TaskID {
	id := TaskID(len(b.g.Tasks))
	t := &Task{ID: id, Kind: kind, CPUSec: cpuSec, Accesses: accesses, Run: run}

	depSet := make(map[TaskID]struct{})
	for _, a := range t.Accesses {
		if int(a.Obj) < 0 || int(a.Obj) >= len(b.g.Objects) {
			panic(fmt.Sprintf("task: submit %q touches undeclared object %d", kind, a.Obj))
		}
		reads := a.Mode == In || a.Mode == InOut
		writes := a.Mode == Out || a.Mode == InOut
		if reads {
			if w, ok := b.lastWriter[a.Obj]; ok {
				depSet[w] = struct{}{}
			}
		}
		if writes {
			if w, ok := b.lastWriter[a.Obj]; ok {
				depSet[w] = struct{}{}
			}
			for _, r := range b.readersSince[a.Obj] {
				if r != id {
					depSet[r] = struct{}{}
				}
			}
		}
	}
	delete(depSet, id)
	t.deps = make([]TaskID, 0, len(depSet))
	for d := range depSet {
		t.deps = append(t.deps, d)
	}
	sort.Slice(t.deps, func(i, j int) bool { return t.deps[i] < t.deps[j] })

	b.g.Tasks = append(b.g.Tasks, t)
	for _, d := range t.deps {
		dep := b.g.Tasks[d]
		dep.succs = append(dep.succs, id)
	}

	// Update per-object dependence state and user lists.
	seen := make(map[ObjectID]bool)
	for _, a := range t.Accesses {
		if !seen[a.Obj] {
			b.g.usersOf[a.Obj] = append(b.g.usersOf[a.Obj], id)
			seen[a.Obj] = true
		}
		switch a.Mode {
		case In:
			b.readersSince[a.Obj] = append(b.readersSince[a.Obj], id)
		case Out, InOut:
			b.lastWriter[a.Obj] = id
			b.readersSince[a.Obj] = b.readersSince[a.Obj][:0]
		}
	}
	return id
}

// Build finalizes and returns the graph. The Builder must not be used
// afterwards.
func (b *Builder) Build() *Graph {
	g := b.g
	b.g = nil
	g.kindNames, g.kindOf = buildKindTable(g.Tasks)
	return g
}
