package model

import "repro/internal/mem"

// PredictAccessSec is the runtime-view prediction of one access stream's
// zero-contention memory time for a single execution of a task kind: the
// quantity the feedback loop (internal/feedback) compares against the
// observed per-object time the simulator charged.
//
// It mirrors the ground truth's shape (TaskDemandTiered: per tier
// holding a share of the object, the larger of the latency floor and the
// bandwidth time; tiers visited fastest to slowest) but substitutes the
// runtime's view for the truth wherever the two can differ:
//
//   - loads/stores come from the profiler's sampled per-entry estimate,
//     not the task's annotation — so a drifting kind (whose real traffic
//     has moved away from its frozen profile) shows up as a growing
//     observed/predicted ratio;
//   - the device times are scaled by the calibrated constant factors
//     CF_bw / CF_lat — so a miscalibration shows up as a constant
//     multiplicative ratio on every pair it touches;
//   - mlp is the access stream's memory-level parallelism, taken from
//     the access annotation (in a real system, measured per stream from
//     load-buffer occupancy counters). Using the measured MLP — rather
//     than the planner's coarse EffectiveMLP inference — keeps the
//     zero-error prediction tight: when profiles are exact and the
//     calibration is right, the only residual is the profiler's sampling
//     bias, which the feedback estimator's deadband absorbs. That is the
//     bit-identity contract: zero model error must mean zero corrections.
//
// shares[tier] is the fraction of the object's bytes resident on each
// tier (the placement that held while the task ran); unused entries are
// zero, matching the runner's tierFrac view. distinguishRW selects the
// split read/write equations (4)/(5) over the combined (2)/(3), exactly
// as the planner's benefit side does.
func (p *Params) PredictAccessSec(loads, stores, mlp float64, distinguishRW bool, shares [mem.MaxTiers]float64) float64 {
	if mlp < 1 {
		mlp = 1
	}
	nt := p.HMS.NumTiers()
	var sec float64
	for ti := nt - 1; ti >= 0; ti-- {
		share := shares[ti]
		if share <= 0 {
			continue
		}
		d := p.HMS.Device(mem.Tier(ti))
		l, s := loads*share, stores*share
		var bw, lat float64
		if distinguishRW {
			bw = l*mem.CacheLineSize/d.ReadBW + s*mem.CacheLineSize/d.WriteBW
			lat = l*d.ReadLatSec() + s*d.WriteLatSec()
		} else {
			total := l + s
			bw = total * mem.CacheLineSize / meanBW(d)
			lat = total * meanLatSec(d)
		}
		bw *= p.cfBw()
		lat = lat * p.cfLat() / mlp
		if lat > bw {
			sec += lat
		} else {
			sec += bw
		}
	}
	return sec
}
