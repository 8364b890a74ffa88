package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"macedon/internal/harness"
	"macedon/internal/scenario"
)

// childResult is what one repetition reports to the parent process.
type childResult struct {
	// Digest fingerprints the run's Report.String() output(s).
	Digest string `json:"digest"`
	// RunS and CPUS are the wall and user+sys CPU seconds of the run.
	RunS float64 `json:"run_s"`
	CPUS float64 `json:"cpu_s"`
	// SetupS is the median wall time of one world construction.
	SetupS float64 `json:"setup_s"`
	// Pkts counts simulated datagrams sent, a shared fork prefix once.
	Pkts      uint64  `json:"pkts"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`
	// OpBase and OpDelivered are the workload deliveries expected and
	// made; op_fail_ratio is 1 - OpDelivered/OpBase.
	OpBase      int `json:"op_base"`
	OpDelivered int `json:"op_delivered"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]metric `json:"layers,omitempty"`
}

func (r *childResult) failRatio() float64 { return opFailRatio(r.OpBase, r.OpDelivered) }

// opFailRatio is the share of expected workload deliveries that did not
// happen.
func opFailRatio(base, delivered int) float64 {
	return 1 - float64(delivered)/float64(base)
}

// runChild executes one repetition and prints its result as JSON.
func runChild(mode, name string, seed int64) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	var cr *childResult
	switch mode {
	case "run":
		cr, err = measureOnce(w)
	case "trace":
		cr, err = traceOnce(w)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(cr)
}

// workload is one benchmark workload, generated from the seed.
type workload struct {
	// scens are the independent worlds a single-run workload executes one
	// after another; sweep is set instead for fork-sweep.
	scens []*scenario.Scenario
	sweep *scenario.Sweep
}

func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{}
	switch name {
	case "churn-lookup":
		w.scens = churnLookup(seed)
	case "multicast-stream":
		s, err := multicastStream(seed)
		if err != nil {
			return nil, err
		}
		w.scens = []*scenario.Scenario{s}
	default:
		w.sweep = forkSweep(seed)
	}
	return w, nil
}

// worlds returns the scenarios whose clusters a run builds: each world, or
// the sweep's shared prefix.
func (w *workload) worlds() []*scenario.Scenario {
	if w.sweep != nil {
		return []*scenario.Scenario{&w.sweep.Base}
	}
	return w.scens
}

// outcome is the checked result of one workload execution.
type outcome struct {
	digest          string
	pkts            uint64
	base, delivered int
	reports         []*scenario.Report
	sweep           *scenario.SweepReport
}

// run executes the workload once at one shard.
func (w *workload) run(obsOn bool) (*outcome, error) {
	if w.sweep == nil {
		var reps []*scenario.Report
		var pkts uint64
		for i, s := range w.scens {
			if i > 0 {
				// Each world starts from a collected heap, as in a
				// process of its own; otherwise peak RSS depends on
				// whether the collector ran before the next world grew.
				runtime.GC()
			}
			rep, err := harness.RunScenarioExec(s, harness.ExecOptions{Shards: 1, Obs: harness.ObsOptions{Enabled: obsOn}})
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
			pkts += rep.Final.Sent
		}
		return summarize(w.scens[0].NeedsGroup(), reps, pkts), nil
	}
	sr, err := harness.RunSweep(w.sweep, 1)
	if err != nil {
		return nil, err
	}
	reps := make([]*scenario.Report, len(sr.Results))
	for i, vr := range sr.Results {
		if !vr.SharedPrefix {
			return nil, fmt.Errorf("fork-sweep variant %s ran cold", vr.Name)
		}
		reps[i] = vr.Report
	}
	if err := checkTwin(reps[0], reps[len(reps)-1]); err != nil {
		return nil, err
	}
	out := summarize(false, reps, sweepPkts(reps))
	out.sweep = sr
	return out, nil
}

// checkTwin compares two reports of one scenario run under different
// variant names.
func checkTwin(a, b *scenario.Report) error {
	bb := *b
	bb.Scenario = a.Scenario
	if a.String() != bb.String() {
		return fmt.Errorf("variant %s diverged from its twin %s", b.Scenario, a.Scenario)
	}
	return nil
}

// sweepPkts counts the datagrams a forked sweep simulated, the shared
// prefix once: every branch's final count includes the prefix, which is the
// first report's total minus what its phases sent after the fork (the
// workloads fork at the settle boundary and drain within a phase).
func sweepPkts(reps []*scenario.Report) uint64 {
	prefix := reps[0].Final.Sent
	for _, p := range reps[0].Phases {
		prefix -= p.Net.Sent
	}
	total := prefix
	for _, r := range reps {
		total += r.Final.Sent - prefix
	}
	return total
}

// summarize fingerprints the reports and totals their workload accounting.
func summarize(multicast bool, reps []*scenario.Report, pkts uint64) *outcome {
	h := sha256.New()
	out := &outcome{pkts: pkts, reports: reps}
	for _, r := range reps {
		h.Write([]byte(r.String()))
		b, d := opCounts(r, multicast)
		out.base += b
		out.delivered += d
	}
	out.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return out
}

// opCounts returns the deliveries a report's workload should have made and
// those it made. A lookup should be delivered once. A multicast packet
// should reach every receiver live when its phase ended: the live
// population minus the source, node 0, which churn never kills.
func opCounts(r *scenario.Report, multicast bool) (base, delivered int) {
	for _, p := range r.Phases {
		if multicast {
			base += p.OpsSent * (p.LiveNodes - 1)
		} else {
			base += p.OpsSent
		}
		delivered += p.OpsDelivered
	}
	return base, delivered
}

// clusterConfig is the cluster the scenario engine builds for s at one
// shard.
func clusterConfig(s *scenario.Scenario) harness.ClusterConfig {
	return harness.ClusterConfig{
		Nodes:          s.Nodes,
		Routers:        s.Routers,
		Seed:           s.Seed,
		Shards:         1,
		HeartbeatAfter: s.HeartbeatAfter.D(),
		FailAfter:      s.FailAfter.D(),
	}
}

// compile performs the compilation a run does before its first event:
// every world's scenario, or every resolved sweep variant.
func (w *workload) compile() error {
	scens := w.scens
	if w.sweep != nil {
		vs, err := w.sweep.Resolve()
		if err != nil {
			return err
		}
		for _, v := range vs {
			scens = append(scens, v.Scenario)
		}
	}
	for _, s := range scens {
		if _, err := scenario.Compile(s); err != nil {
			return err
		}
	}
	return nil
}

// buildClusters builds and stops the clusters a run builds before its
// first event: INET topology, client attachment, emulator, shard partition.
func (w *workload) buildClusters() error {
	for _, s := range w.worlds() {
		c, err := harness.NewCluster(clusterConfig(s))
		if err != nil {
			return err
		}
		c.StopAll()
	}
	return nil
}

// construct is the set-up a run does before its first event: compilation
// plus the clusters.
func (w *workload) construct() error {
	if err := w.compile(); err != nil {
		return err
	}
	return w.buildClusters()
}

// setupReps is how many constructions setup_s takes the median of. One
// construction takes a few milliseconds, so a single one is at the mercy
// of the scheduler and the collector.
const setupReps = 41

// timeSetup returns the median wall time of one world construction, after
// one untimed warm-up.
func timeSetup(w *workload) (float64, error) {
	ds := make([]float64, setupReps)
	for i := -1; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.construct(); err != nil {
			return 0, err
		}
		if i >= 0 {
			ds[i] = time.Since(t0).Seconds()
		}
	}
	return medianF(ds), nil
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureOnce is one untraced repetition: set-up timing, then one timed
// execution of the workload.
func measureOnce(w *workload) (*childResult, error) {
	setup, err := timeSetup(w)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out, err := w.run(false)
	if err != nil {
		return nil, err
	}
	runS := time.Since(t0).Seconds()
	cpuS := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	return &childResult{
		Digest:      out.digest,
		RunS:        runS,
		CPUS:        cpuS,
		SetupS:      setup,
		Pkts:        out.pkts,
		PeakRSSMB:   peakRSSMB(),
		AllocMB:     float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		OpBase:      out.base,
		OpDelivered: out.delivered,
	}, nil
}
