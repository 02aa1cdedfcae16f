package heap

import (
	"repro/internal/mem"
	"repro/internal/task"
)

// SetShadowCheck makes every State built afterwards carry a refState
// shadow (state_ref_test.go) that cross-checks the struct-of-arrays
// layout after the build and after every Move; false turns it off. Not
// safe to toggle concurrently with NewState.
func SetShadowCheck(on bool) {
	newShadow = nil
	if on {
		newShadow = func(hms mem.HMS, objects []*task.Object, chunksFor map[task.ObjectID]int) (shadowLayout, error) {
			r, err := newRefState(hms, objects, chunksFor)
			if err != nil {
				return nil, err
			}
			return r, nil
		}
	}
}
