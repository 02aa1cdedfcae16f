package core

import "repro/internal/task"

// SetPlanAudit makes every plan computed afterwards pass through fn
// (with the runner and the future task list it was computed from)
// before the winner is chosen or enforced, and returns a function that
// removes the hook. Not safe to call while runs are in flight.
func SetPlanAudit(fn func(r *runner, future []*task.Task, got planResult)) (restore func()) {
	planAudit = fn
	return func() { planAudit = nil }
}

// SetTestHook makes every run finishing afterwards pass its final runner
// state to fn, and returns a function that removes the hook. Not safe to
// call while runs are in flight.
func SetTestHook(fn func(r *runner)) (restore func()) {
	testHook = fn
	return func() { testHook = nil }
}
