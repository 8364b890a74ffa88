package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"macedon/internal/harness"
	"macedon/internal/obs"
	"macedon/internal/scenario"
)

// runTraced makes one untraced and one traced repetition, each in a fresh
// process, and reports the traced one's per-layer metrics. The difference
// of their run times is the tracing overhead.
func runTraced(workload string, seed int64) (*result, error) {
	plain, err := spawnChild("run", workload, seed)
	if err != nil {
		return nil, err
	}
	traced, err := spawnChild("trace", workload, seed)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: 2, Metrics: traced.Layers}
	if err := sameOutput([]*childResult{plain, traced}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	res.Metrics["obs.trace_overhead_s"] = metric{traced.RunS - plain.RunS, "s"}
	return res, nil
}

// memProfileRate samples one allocation per this many bytes in a traced
// run, finer than the runtime default so small layers are resolved.
const memProfileRate = 64 << 10

// traceOnce is the traced repetition. It times the construction calls, runs
// the workload under a CPU and allocation profile with the obs plane on,
// attributes the profiles to layers, reads the obs exposition's counters,
// and runs the layer probes sized from those counts.
//
// fork-sweep differs: with obs on, a sweep runs every variant cold and so
// never exercises statecopy. Its profile therefore comes from the usual
// forked run with obs off, and its counts from an obs-on cold run of the
// first variant, whose report must equal that variant's forked branch.
func traceOnce(w *workload) (*childResult, error) {
	runtime.MemProfileRate = memProfileRate
	L := map[string]metric{}

	t0 := time.Now()
	if err := w.compile(); err != nil {
		return nil, err
	}
	L["scenario.compile_s"] = metric{time.Since(t0).Seconds(), "s"}
	t0 = time.Now()
	if err := w.buildClusters(); err != nil {
		return nil, err
	}
	L["topology.build_s"] = metric{time.Since(t0).Seconds(), "s"}

	allocs0, err := allocsByLayer()
	if err != nil {
		return nil, err
	}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, err
	}
	t0 = time.Now()
	out, err := w.run(w.sweep == nil)
	runS := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	allocs1, err := allocsByLayer()
	if err != nil {
		return nil, err
	}

	counted := out.reports
	if w.sweep != nil {
		vs, err := w.sweep.Resolve()
		if err != nil {
			return nil, err
		}
		cold, err := harness.RunScenarioExec(vs[0].Scenario, harness.ExecOptions{Shards: 1, Obs: harness.ObsOptions{Enabled: true}})
		if err != nil {
			return nil, err
		}
		if cold.String() != counted[0].String() {
			return nil, fmt.Errorf("fork-sweep variant %s: forked branch differs from its cold run", vs[0].Name)
		}
		counted = []*scenario.Report{cold}
	}

	samples, err := decodeProfile(cpu.Bytes(), "cpu")
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	self := byLayer(samples)
	var total int64
	for _, layer := range cpuLayers {
		total += self[layer]
		L[layer+".self_s"] = metric{float64(self[layer]) / 1e9, "s"}
	}
	L["cpu.sampled_s"] = metric{float64(total) / 1e9, "s"}
	for _, layer := range []string{"transport", "core", "overlay.codec"} {
		L[layer+".alloc_mb"] = metric{float64(allocs1[layer]-allocs0[layer]) / (1 << 20), "MB"}
	}

	cnt, err := expositionCounts(counted)
	if err != nil {
		return nil, err
	}
	sent := cnt["macedon_net_sent_total"]
	events := cnt["macedon_sched_events_total"]
	L["simnet.sched.events"] = metric{events, "count"}
	L["simnet.sched.events_per_pkt"] = metric{events / sent, "events/pkt"}
	L["simnet.net.pkts"] = metric{sent, "count"}
	L["simnet.net.drop_ratio"] = metric{cnt["macedon_net_dropped_total"] / sent, "ratio"}
	L["simnet.net.pool_recycle_ratio"] = metric{cnt["macedon_sched_pool_recycled_total"] / cnt["macedon_sched_pool_gets_total"], "ratio"}
	ops, ctl, hops := protocolCounts(counted)
	L["core.ctl_msgs_per_op"] = metric{ctl / ops, "msgs/op"}
	L["overlays.hops_per_op"] = metric{hops, "hops/op"}

	var prefix, branch float64
	if w.sweep != nil {
		prefix, branch = sweepWalls(out.sweep)
	} else if prefix, branch, err = probeSweep(w.worlds()[0]); err != nil {
		return nil, err
	}
	L["harness.prefix_s"] = metric{prefix, "s"}
	L["harness.branch_s"] = metric{branch, "s"}

	s := uint64(sent)
	L["overlay.hash.ns"] = metric{probeHash(clampIters(s/4, 20_000, 400_000)), "ns"}
	codecNS, err := probeCodec(clampIters(s/4, 20_000, 400_000))
	if err != nil {
		return nil, err
	}
	L["overlay.codec.roundtrip_ns"] = metric{codecNS, "ns"}
	L["simnet.sched.timer_ns"] = metric{probeTimers(clampIters(uint64(events)/8, 50_000, 1_000_000), int(cnt["macedon_sched_heap_depth"])/len(counted)), "ns"}
	sendNS, err := probeTransport(clampIters(s/50, 2_000, 40_000))
	if err != nil {
		return nil, err
	}
	L["transport.send_ns"] = metric{sendNS, "ns"}
	cpS, rsS, err := probeStatecopy(w.worlds()[0])
	if err != nil {
		return nil, err
	}
	L["statecopy.checkpoint_s"] = metric{cpS, "s"}
	L["statecopy.restore_s"] = metric{rsS, "s"}

	return &childResult{
		Digest:      out.digest,
		RunS:        runS,
		Pkts:        out.pkts,
		OpBase:      out.base,
		OpDelivered: out.delivered,
		Layers:      L,
	}, nil
}

// allocsByLayer returns the bytes allocated so far per layer, from the
// allocation profile as of a fresh collection.
func allocsByLayer() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	samples, err := decodeProfile(buf.Bytes(), "alloc_space")
	if err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	return byLayer(samples), nil
}

// expositionCounts sums the unlabelled samples of the reports' obs
// expositions.
func expositionCounts(reps []*scenario.Report) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, r := range reps {
		if r.Obs == nil {
			return nil, fmt.Errorf("report %s has no obs exposition", r.Scenario)
		}
		sc, err := obs.ParseText([]byte(r.Obs.Exposition))
		if err != nil {
			return nil, err
		}
		for _, s := range sc.Samples {
			if s.Labels == "" {
				out[s.Name] += s.Value
			}
		}
	}
	for _, name := range []string{"macedon_net_sent_total", "macedon_sched_events_total", "macedon_sched_pool_gets_total"} {
		if out[name] == 0 {
			return nil, fmt.Errorf("exposition lacks %s", name)
		}
	}
	return out, nil
}

// protocolCounts returns the reports' workload operations sent, the control
// messages live nodes sent after the settle boundary, and the overlay hops
// per delivery.
func protocolCounts(reps []*scenario.Report) (ops, ctl, hops float64) {
	var fwd, del int
	for _, r := range reps {
		for _, p := range r.Phases {
			ops += float64(p.OpsSent)
			fwd += p.OpsForwarded
			del += p.OpsDelivered
		}
		if n := len(r.Phases); n > 0 {
			ctl += float64(r.Phases[n-1].CtlMsgs)
		}
	}
	if del > 0 {
		hops = float64(fwd+del) / float64(del)
	}
	return ops, ctl, hops
}

// sweepWalls returns a forked sweep's shared-prefix wall time and its
// median branch wall time.
func sweepWalls(sr *scenario.SweepReport) (prefix, branch float64) {
	var bs []float64
	for _, vr := range sr.Results {
		if vr.SharedPrefix {
			bs = append(bs, vr.BranchWall.Seconds())
		}
	}
	return sr.PrefixWall.Seconds(), medianF(bs)
}

// probeBranch is how long each branch of the probe sweep runs.
const probeBranch = 5 * time.Second

// probeSweep measures the harness's fork machinery on a single-run
// workload: a sweep of two identical variants whose only phase is the
// scenario's first, cut to probeBranch. Both share one forked prefix, and
// their reports must match.
func probeSweep(s *scenario.Scenario) (prefix, branch float64, err error) {
	base := *s
	ph := s.Phases[0]
	ph.Duration = scenario.Duration(min(probeBranch, ph.Duration.D()))
	ph.Events = slices.DeleteFunc(slices.Clone(ph.Events), func(e scenario.Event) bool { return e.At >= ph.Duration })
	base.Phases = []scenario.Phase{ph}
	sw := &scenario.Sweep{Name: s.Name + "-probe", Base: base, Variants: []scenario.SweepVariant{{Name: "a"}, {Name: "b"}}}
	sr, err := harness.RunSweep(sw, 1)
	if err != nil {
		return 0, 0, err
	}
	if !sr.Results[1].SharedPrefix {
		return 0, 0, fmt.Errorf("probe sweep of %s ran cold", s.Name)
	}
	if err := checkTwin(sr.Results[0].Report, sr.Results[1].Report); err != nil {
		return 0, 0, err
	}
	prefix, branch = sweepWalls(sr)
	return prefix, branch, nil
}
