package core

import (
	"testing"

	"repro/internal/feedback"
)

// TestRequestReplan pins the one replan-request rule: coalescing while
// a replan is pending, the shared maxReplans cap, the per-reason
// budgets, and the charge-but-set-nothing rule before the first plan.
func TestRequestReplan(t *testing.T) {
	for _, tc := range []struct {
		name     string
		planned  bool
		pending  bool
		replans  int
		grants   [numReplanReasons]int
		fbBudget int
		why      replanReason
		charged  bool
		pendAft  bool
	}{
		{name: "stale granted", planned: true, fbBudget: 4, why: replanStale, charged: true, pendAft: true},
		{name: "feedback granted", planned: true, fbBudget: 4, why: replanFeedback, charged: true, pendAft: true},
		{name: "pending coalesces", planned: true, pending: true, fbBudget: 4, why: replanFeedback, pendAft: true},
		{name: "pending coalesces adaptive", planned: true, pending: true, fbBudget: 4, why: replanAdaptive, pendAft: true},
		{name: "before first plan", fbBudget: 4, why: replanAdaptive, charged: true},
		{name: "feedback budget spent", planned: true, fbBudget: 4, grants: [numReplanReasons]int{replanFeedback: 4}, why: replanFeedback},
		{name: "negative feedback budget", planned: true, fbBudget: -1, why: replanFeedback},
		{name: "adaptive budget spent", planned: true, fbBudget: 4, grants: [numReplanReasons]int{replanAdaptive: adaptMaxRounds}, why: replanAdaptive},
		{name: "stale has no budget", planned: true, fbBudget: 4, grants: [numReplanReasons]int{replanStale: 100}, why: replanStale, charged: true, pendAft: true},
	} {
		r := &runner{planned: tc.planned, needReplan: tc.pending, replans: tc.replans,
			replanGrants: tc.grants, fbCfg: feedback.Config{ReplanBudget: tc.fbBudget}}
		before := r.replanGrants[tc.why]
		r.requestReplan(tc.why)
		if charged := r.replanGrants[tc.why] != before; charged != tc.charged {
			t.Errorf("%s: charged = %v, want %v", tc.name, charged, tc.charged)
		}
		if r.needReplan != tc.pendAft {
			t.Errorf("%s: needReplan = %v, want %v", tc.name, r.needReplan, tc.pendAft)
		}
	}

	// The cap blocks every reason.
	for why := replanReason(0); why < numReplanReasons; why++ {
		r := &runner{planned: true, replans: maxReplans, fbCfg: feedback.Config{ReplanBudget: 4}}
		r.requestReplan(why)
		if r.needReplan || r.replanGrants[why] != 0 {
			t.Errorf("reason %d granted past maxReplans", why)
		}
	}

	// Adaptive gets at most adaptMaxRounds (2) rounds, each consumed by
	// a plan before the next request.
	r := &runner{planned: true}
	for i := 0; i < 5; i++ {
		r.requestReplan(replanAdaptive)
		if r.needReplan {
			r.needReplan = false
			r.replans++
		}
	}
	if adaptMaxRounds != 2 || r.replanGrants[replanAdaptive] != 2 || r.replans != 2 {
		t.Errorf("adaptive granted %d rounds (%d replans), want 2", r.replanGrants[replanAdaptive], r.replans)
	}
}
