package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/calib"
	"repro/internal/prof"
	"repro/internal/serve"
)

// The serve-open load: an open loop of seeded Poisson arrivals. Each
// measured part of a run of length D spends D/3 at the nominal rate,
// D/12 at each rate of the ladder, and D/4 of arrivals at the overload
// rate, which is above what the service completes, so its queue grows
// and the completion rate there is the service's capacity.
const (
	nominalRate  = 80.0  // requests per second
	overloadRate = 720.0 // requests per second
	latencyMS    = 50.0  // the latency limit, from the due time
	missLimit    = 0.01  // a rate meets the limit when at most 1% of requests miss it
	tenants      = 16
)

// ladder is the fixed list of rates between the nominal and the
// overload one, in requests per second.
var ladder = []float64{160, 240, 320}

// registered lists the registered (workload, scale) pairs the mix
// draws from.
var registered = []requestTemplate{
	{workload: "heat", scale: 4}, {workload: "heat", scale: 8},
	{workload: "cg", scale: 8}, {workload: "cg", scale: 16},
	{workload: "wave", scale: 12}, {workload: "wave", scale: 24},
	{workload: "kmeans", scale: 6}, {workload: "kmeans", scale: 10},
	{workload: "cholesky", scale: 6}, {workload: "cholesky", scale: 8},
}

// deckShares is how many of every 200 requests each class gets, in
// class order: 55% plain, 15% traced, 10% each with faults, with
// feedback and inline. Requests are dealt from a shuffled deck of 200
// cards holding exactly these shares, registered requests spread
// evenly over the pairs above and faulty ones over four schedules, and
// every phase is a whole number of decks. A seed changes the order, the
// arrival times, the tenants and the inline graphs, not the mix.
var deckShares = []int{110, 30, 20, 20, 20}

// card is one request of the deck.
type card struct{ class, tmpl, faultSeed int }

// phase is one stretch of the load at one arrival rate.
type phase struct {
	rate float64
	reqs []request
}

// serveOpen drives an in-process service with the open loop.
type serveOpen struct {
	env   env
	h     *harness
	rng   *rand.Rand
	deck  []card
	made  int // requests made so far; numbers the inline graphs
	memo  map[string]expected
	parts [][]phase // one list of phases per measured part
	next  int
}

func setupServeOpen(seed int64, parts []time.Duration, rec *recorder) (bench, error) {
	e, err := newEnv(rec)
	if err != nil {
		return nil, err
	}
	cache := &calib.Cache{}
	rec.timed("calib.Cache.Factors", 0, 0, func() { cache.Factors(e.hms, prof.DefaultConfig()) })
	b := &serveOpen{env: e, rng: rand.New(rand.NewSource(seed)), memo: map[string]expected{}}
	for c, n := range deckShares {
		for k := 0; k < n; k++ {
			b.deck = append(b.deck, card{class: c, tmpl: k % len(registered), faultSeed: 1 + k/len(registered)%4})
		}
	}
	for _, d := range parts {
		ps := []phase{{rate: nominalRate}}
		lengths := []time.Duration{d / 3}
		for _, r := range ladder {
			ps = append(ps, phase{rate: r})
			lengths = append(lengths, d/12)
		}
		ps = append(ps, phase{rate: overloadRate})
		lengths = append(lengths, d/4)
		for i := range ps {
			if err := b.schedule(&ps[i], lengths[i]); err != nil {
				return nil, err
			}
		}
		b.parts = append(b.parts, ps)
	}
	if b.h, err = startHarness(nproc(), nproc(), cache); err != nil {
		return nil, err
	}
	return b, nil
}

// schedule deals one phase's requests, a whole number of decks (at
// least one) near rate × length, with exponential gaps at the rate, and
// computes every request's expected outputs, sharing them between
// repeated registered requests.
func (b *serveOpen) schedule(p *phase, length time.Duration) error {
	decks := int(math.Round(p.rate * length.Seconds() / float64(len(b.deck))))
	if decks < 1 {
		decks = 1
	}
	t := 0.0
	for d := 0; d < decks; d++ {
		b.rng.Shuffle(len(b.deck), func(i, j int) { b.deck[i], b.deck[j] = b.deck[j], b.deck[i] })
		for _, c := range b.deck {
			t += b.rng.ExpFloat64() / p.rate
			r, err := b.request(c)
			if err != nil {
				return err
			}
			r.due = time.Duration(t * float64(time.Second))
			p.reqs = append(p.reqs, r)
		}
	}
	return nil
}

// request makes the request a card stands for.
func (b *serveOpen) request(c card) (request, error) {
	class := classes[c.class]
	tenant := fmt.Sprintf("tenant-%02d", b.rng.Intn(tenants))
	var req serve.RunRequest
	var key string
	if class == classInline {
		req = serve.RunRequest{Tenant: tenant, Graph: randomGraph(b.rng, b.made)}
		key = fmt.Sprintf("inline-%d", b.made)
	} else {
		req = registered[c.tmpl].classRequest(class, tenant, c.faultSeed)
		key = fmt.Sprintf("%s|%d|%s|%s|%v", req.Workload, req.Scale, req.Faults, req.Feedback, req.Trace)
	}
	b.made++
	want, ok := b.memo[key]
	if !ok {
		var err error
		if want, _, err = direct(b.env, &req); err != nil {
			return request{}, fmt.Errorf("direct run: %w", err)
		}
		b.memo[key] = want
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return request{}, err
	}
	return request{class: class, body: body, want: want}, nil
}

// randomGraph draws a small inline graph no other request repeats: its
// name carries a serial number and its sizes, accesses and traffic are
// random. Every one has the same number of objects and tasks, so their
// cost varies less than their content.
func randomGraph(rng *rand.Rand, serial int) *serve.GraphSpec {
	const nObj, nTask = 8, 40
	g := &serve.GraphSpec{Name: fmt.Sprintf("inline-%d", serial)}
	for i := 0; i < nObj; i++ {
		g.Objects = append(g.Objects, serve.ObjectSpec{Size: int64(1+rng.Intn(48)) << 20, NoChunk: rng.Intn(4) == 0})
	}
	for i := 0; i < nTask; i++ {
		ts := serve.TaskSpec{Kind: fmt.Sprintf("k%d", rng.Intn(4)), CPUSec: 1e-4 * (1 + rng.Float64())}
		for _, o := range rng.Perm(nObj)[:1+rng.Intn(3)] {
			lines := g.Objects[o].Size / 64
			a := serve.AccessSpec{Obj: o, Mode: []string{"in", "out", "inout"}[rng.Intn(3)], Loads: 1 + rng.Int63n(lines), MLP: 1 + 15*rng.Float64()}
			if a.Mode != "in" {
				a.Stores = 1 + rng.Int63n(lines)
			}
			ts.Accesses = append(ts.Accesses, a)
		}
		g.Tasks = append(g.Tasks, ts)
	}
	return g
}

func (b *serveOpen) measure(_ time.Duration, rec *recorder) (loopResult, error) {
	if b.next >= len(b.parts) {
		return loopResult{}, fmt.Errorf("serve-open: no schedule left")
	}
	phases := b.parts[b.next]
	b.next++
	var lr loopResult
	var op0 int64
	var rates, misses []float64
	before := takeUsage()
	for pi, p := range phases {
		sp := rec.begin(fmt.Sprintf("phase %g/s", p.rate), 0, 0)
		outs := b.h.openLoop(p.reqs, rec, op0)
		rec.end(sp)
		op0 += int64(len(p.reqs))
		var lat []float64
		var last time.Duration
		missed, good := 0, int64(0)
		for i, o := range outs {
			lr.attempted++
			if err := o.check(p.reqs[i]); err != nil {
				lr.failed++
				missed++
				logf("request %d at %g/s: %v", i, p.rate, err)
				continue
			}
			l := ms(o.latency(p.reqs[i]))
			lat = append(lat, l)
			if l > latencyMS {
				missed++
			} else {
				good += int64(o.resp.Tasks)
			}
			if o.done > last {
				last = o.done
			}
		}
		miss := ratio(float64(missed), float64(len(outs)))
		lr.notes = append(lr.notes, fmt.Sprintf("%g/s: %d requests, p50 %.4g ms, p99 %.4g ms, %.3g%% over %g ms or failed", p.rate, len(outs), median(lat), percentile(lat, 99), 100*miss, latencyMS))
		switch {
		case pi == 0:
			// Goodput at the nominal rate: the simulated tasks of the
			// requests answered correctly within the limit.
			lr.lat, lr.tasks, lr.wall = lat, good, last
			st, err := b.h.stats()
			if err != nil {
				return lr, fmt.Errorf("stats: %w", err)
			}
			lr.layer = map[string]float64{}
			serveLayers(p.reqs, outs, st, lr.layer)
		case pi == len(phases)-1:
			lr.rate = capacity(p.reqs, outs, last)
			lr.notes = append(lr.notes, fmt.Sprintf("capacity %.4g/s; the %g ms limit holds up to %.4g/s", lr.rate, latencyMS, maxRate(rates, misses)))
			continue
		}
		rates = append(rates, p.rate)
		misses = append(misses, miss)
	}
	lr.allocMB, lr.cpuMS = before.since()
	return lr, nil
}

// capacity is the service's completion rate under the overload phase:
// correct responses per one-second window while requests were still
// waiting for a connection, so that the service never waited for work,
// averaged over the middle half of the windows. Trimming the rest
// discards the ramp and any second the host stalled. With fewer than
// four such windows it is the rate over the whole phase.
func capacity(reqs []request, outs []outcome, last time.Duration) float64 {
	var busyEnd time.Duration
	for _, o := range outs {
		if o.sent > busyEnd {
			busyEnd = o.sent
		}
	}
	n := int((busyEnd - reqs[0].due) / time.Second)
	counts := make([]float64, n)
	ok := 0.0
	for i, o := range outs {
		if o.check(reqs[i]) != nil {
			continue
		}
		ok++
		if w := int((o.done - reqs[0].due) / time.Second); w < n {
			counts[w]++
		}
	}
	if n < 4 {
		return ok / (last - reqs[0].due).Seconds()
	}
	sort.Float64s(counts)
	mid := counts[n/4 : n-n/4]
	sum := 0.0
	for _, c := range mid {
		sum += c
	}
	return sum / float64(len(mid))
}

// maxRate interpolates the highest rate whose miss share stays within
// missLimit: linearly between the last rate that met the limit and the
// first that did not (from zero when even the first rate misses), and
// the top rate when every rate met it.
func maxRate(rates, misses []float64) float64 {
	prevRate, prevMiss := 0.0, 0.0
	for i, r := range rates {
		if misses[i] > missLimit {
			return prevRate + (r-prevRate)*(missLimit-prevMiss)/(misses[i]-prevMiss)
		}
		prevRate, prevMiss = r, misses[i]
	}
	return math.Max(prevRate, 0)
}

func (b *serveOpen) layers(rec *recorder) (map[string]float64, error) {
	var ins []instance
	for _, r := range registered {
		ins = append(ins, instance{label: fmt.Sprintf("%s%d", r.workload, r.scale), workload: r.workload, scale: r.scale})
	}
	return probeLayers(b.env, ins, rec)
}

func (b *serveOpen) close() { b.h.close() }
