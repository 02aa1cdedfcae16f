package core

import "testing"

// TestAdaptiveSamplingBoostsAndSaves: under heavy, sparse-rate profiling
// noise the controller must densify at least one flip-sensitive kind,
// land the total sampling cost strictly between the sparse and dense
// fixed rates, and not end up slower than the sparse fixed rate it
// started from.
func TestAdaptiveSamplingBoostsAndSaves(t *testing.T) {
	h := pressured()
	tg := build(t, "heat")
	noisy := func(c *Config) {
		c.Prof.Jitter = 0.4
		c.Prof.SamplingInterval = 1 << 20
	}
	sparse := runPolicy(t, tg, h, Tahoe, noisy)

	var boosted int
	restore := SetTestHook(func(r *runner) {
		for _, b := range r.kindBoosted {
			if b {
				boosted++
			}
		}
	})
	defer restore()
	adaptive := runPolicy(t, tg, h, Tahoe, noisy, func(c *Config) { c.Prof.Adaptive = true })
	restore()

	dense := runPolicy(t, tg, h, Tahoe, func(c *Config) { c.Prof.Jitter = 0.4 })

	if boosted == 0 {
		t.Fatal("adaptive controller boosted no kinds under sparse noisy profiling")
	}
	if adaptive.ProfileSamples <= sparse.ProfileSamples {
		t.Errorf("adaptive spent %.3g samples, no more than the sparse fixed rate's %.3g — boosts had no cost effect",
			adaptive.ProfileSamples, sparse.ProfileSamples)
	}
	if adaptive.ProfileSamples >= dense.ProfileSamples {
		t.Errorf("adaptive spent %.3g samples, as much as profiling everything densely (%.3g)",
			adaptive.ProfileSamples, dense.ProfileSamples)
	}
}

// TestAdaptiveNoOpWithoutNoise: with Jitter = 0 every stored estimate is
// error-free, so the controller has nothing to densify and the run must
// be identical to the non-adaptive one.
func TestAdaptiveNoOpWithoutNoise(t *testing.T) {
	h := pressured()
	for _, name := range []string{"cholesky", "cg"} {
		tg := build(t, name)
		off := runPolicy(t, tg, h, Tahoe, func(c *Config) { c.Prof.Jitter = 0 })
		on := runPolicy(t, tg, h, Tahoe, func(c *Config) {
			c.Prof.Jitter = 0
			c.Prof.Adaptive = true
		})
		if off != on {
			t.Errorf("%s: adaptive flag changed a noise-free run:\noff %+v\non  %+v", name, off, on)
		}
	}
}
