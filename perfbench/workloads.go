package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"macedon/internal/scenario"
)

// Seeds recorded for claims: DefaultSeed is the seed performance work is
// tuned on; HeldOutSeed is kept out of tuning so a claimed gain can be
// confirmed on inputs it was not shaped against.
const (
	DefaultSeed = 2004
	HeldOutSeed = 7919
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"churn-lookup", "multicast-stream", "fork-sweep"}

// dur is shorthand for scenario durations.
func dur(d time.Duration) scenario.Duration { return scenario.Duration(d) }

// subSeed derives the seed of one generated input from the benchmark seed.
// Every random choice of a run (topology, join order, churn victims, lookup
// keys) derives from the benchmark seed through it, so the same benchmark
// seed always yields the same inputs.
func subSeed(seed, salt int64) int64 { return seed*1_000_003 + salt }

// churnWorlds is how many independent rings one churn-lookup repetition
// runs, one after another. One ring's lookup failure share varies by about
// 9% (standard deviation over mean) from seed to seed; two rings narrow
// that by a factor of √2.
const churnWorlds = 2

// Churn-lookup churn: churnKills kills at uniformly random instants of the
// churn phase, each victim down for churnDowntime.
const (
	churnLen      = 90 * time.Second
	churnKills    = 135
	churnDowntime = 15 * time.Second
)

// churnLookup is the control-plane workload: genchord rings of 300 nodes on
// 900 routers join, settle, then serve 64-byte lookups under churn. Small
// packets make per-packet costs (hashing, scheduling, dispatch) dominate.
func churnLookup(seed int64) []*scenario.Scenario {
	out := make([]*scenario.Scenario, churnWorlds)
	for i := range out {
		s := ringScenario(fmt.Sprintf("churn-lookup-%d", i), subSeed(seed, int64(10+i)))
		rng := rand.New(rand.NewSource(subSeed(seed, int64(20+i))))
		s.Phases = []scenario.Phase{{
			Name:     "churn",
			Duration: dur(churnLen),
			Events:   churnEvents(rng, churnKills, churnLen, churnDowntime, s.Nodes),
			Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: 40, Size: 64},
		}}
		out[i] = s
	}
	return out
}

// ringScenario is the genchord world churn-lookup and fork-sweep share,
// without phases.
func ringScenario(name string, seed int64) *scenario.Scenario {
	return &scenario.Scenario{
		Name:           name,
		Seed:           seed,
		Nodes:          300,
		Routers:        900,
		Protocol:       "genchord",
		Join:           scenario.JoinSpec{Process: "staggered", Window: dur(20 * time.Second)},
		Settle:         dur(50 * time.Second),
		Drain:          dur(10 * time.Second),
		HeartbeatAfter: dur(time.Second),
		FailAfter:      dur(4 * time.Second),
	}
}

// churnEvents draws kills of nodes other than the bootstrap, node 0, at
// kills uniformly random instants of span (a Poisson process conditioned
// on its count, which removes the count's own variance), each victim chosen
// among the nodes up at that instant and revived downtime later when that
// falls inside span; downtime 0 kills for good.
//
// The engine's churn model draws victims from the scenario seed, so sweep
// branches forked from one prefix would all lose the same nodes in the same
// order; drawing them here gives each branch its own. One victim's routing
// load decides much of the failure share, so independent victims average.
func churnEvents(rng *rand.Rand, kills int, span, downtime time.Duration, nodes int) []scenario.Event {
	at := make([]time.Duration, kills)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(span)))
	}
	slices.Sort(at)
	upAgain := make([]time.Duration, nodes) // when a down node revives; 0 = up
	var out []scenario.Event
	for _, t := range at {
		var up []int
		for n := 1; n < nodes; n++ {
			if upAgain[n] == 0 || (downtime > 0 && upAgain[n] <= t) {
				up = append(up, n)
			}
		}
		if len(up) == 0 {
			break
		}
		v := up[rng.Intn(len(up))]
		out = append(out, scenario.Event{At: dur(t), Kind: scenario.EvKill, Node: v})
		upAgain[v] = span
		if downtime > 0 && t+downtime < span {
			upAgain[v] = t + downtime
			out = append(out, scenario.Event{At: dur(t + downtime), Kind: scenario.EvRevive, Node: v})
		}
	}
	slices.SortStableFunc(out, func(a, b scenario.Event) int { return int(a.At - b.At) })
	return out
}

// Multicast churn: waves of leafWave victims every wavePeriod, each down
// for waveDowntime, so every victim is back before the phase ends.
const (
	leafWave     = 5
	wavePeriod   = 10 * time.Second
	waveDowntime = 8 * time.Second
	churnPhase   = 40 * time.Second
)

// multicastStream is the data-plane workload: a genrandtree of 100 nodes on
// 400 routers carries a 40/s stream of 1000-byte packets from node 0
// through waves of churn.
//
// The waves kill the latest joiners, which the tree places at its leaves.
// A random victim may instead be an interior node that cuts off its whole
// subtree until it is repaired, which made the delivery failure share
// range from 1% to 6% across seeds.
func multicastStream(seed int64) (*scenario.Scenario, error) {
	// A named group keeps the prefix of sweeps over this scenario
	// shareable: an unnamed one is named after each variant.
	wl := &scenario.Workload{Kind: scenario.WlMulticast, Rate: 40, Size: 1000, Group: "stream"}
	s := &scenario.Scenario{
		Name:           "multicast-stream",
		Seed:           subSeed(seed, 2),
		Nodes:          100,
		Routers:        400,
		Protocol:       "genrandtree",
		Join:           scenario.JoinSpec{Process: "staggered", Window: dur(15 * time.Second)},
		Settle:         dur(40 * time.Second),
		Drain:          dur(10 * time.Second),
		HeartbeatAfter: dur(2 * time.Second),
		FailAfter:      dur(6 * time.Second),
		Phases: []scenario.Phase{
			{Name: "steady", Duration: dur(20 * time.Second), Workload: wl},
			{Name: "churn", Duration: dur(churnPhase), Workload: wl},
		},
	}
	sched, err := scenario.Compile(s)
	if err != nil {
		return nil, err
	}
	var joins []scenario.Op
	for _, op := range sched.Ops {
		if op.Kind == scenario.OpSpawn && op.Node != 0 {
			joins = append(joins, op)
		}
	}
	slices.SortStableFunc(joins, func(a, b scenario.Op) int { return int(b.At - a.At) })
	ph := &s.Phases[1]
	for w, at := 0, wavePeriod; at < churnPhase; w, at = w+1, at+wavePeriod {
		for _, op := range joins[w*leafWave : (w+1)*leafWave] {
			ph.Events = append(ph.Events,
				scenario.Event{At: dur(at), Kind: scenario.EvKill, Node: op.Node},
				scenario.Event{At: dur(at + waveDowntime), Kind: scenario.EvRevive, Node: op.Node})
		}
	}
	return s, nil
}

// Fork-sweep branches: each runs branchLen of lookups under churn, then a
// quiet phase that lets lookups in flight finish.
const (
	branchLen = 5 * time.Second
	quietLen  = 2 * time.Second
)

// forkSweep is the design-sweep workload: one settled genchord prefix of
// 300 nodes is checkpointed, then short branches vary the churn and lookup
// rates, each with its own victims (see churnEvents). The last variant
// duplicates the first, so its report must match its twin byte for byte.
func forkSweep(seed int64) *scenario.Sweep {
	base := ringScenario("fork-sweep", subSeed(seed, 3))
	// The drain is kept to a millisecond, so nearly every datagram a
	// branch sends falls inside its phases (sweepPkts relies on it).
	base.Drain = dur(time.Millisecond)
	base.Phases = branchPhases(nil, 20)
	sw := &scenario.Sweep{Name: "fork-sweep", Base: *base}
	rng := rand.New(rand.NewSource(subSeed(seed, 4)))
	for _, churn := range []float64{0.5, 1, 2, 4, 8} {
		for _, rate := range []float64{20, 40, 80, 160} {
			kills := churnEvents(rng, int(churn*branchLen.Seconds()+0.5), branchLen, 0, base.Nodes)
			sw.Variants = append(sw.Variants, scenario.SweepVariant{
				Name:   fmt.Sprintf("churn%g-rate%g", churn, rate),
				Phases: branchPhases(kills, rate),
			})
		}
	}
	dup := sw.Variants[0]
	dup.Name = "dup-" + dup.Name
	sw.Variants = append(sw.Variants, dup)
	return sw
}

// branchPhases is one sweep branch: lookups at rate under the given kills,
// then quiet.
func branchPhases(kills []scenario.Event, rate float64) []scenario.Phase {
	return []scenario.Phase{
		{
			Name:     "branch",
			Duration: dur(branchLen),
			Events:   kills,
			Workload: &scenario.Workload{Kind: scenario.WlLookups, Rate: rate, Size: 64},
		},
		{Name: "quiet", Duration: dur(quietLen)},
	}
}
