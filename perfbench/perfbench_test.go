package main

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"macedon/internal/scenario"
)

func stack(frames ...string) []frame {
	out := make([]frame, 0, len(frames)/2)
	for i := 0; i < len(frames); i += 2 {
		out = append(out, frame{fn: frames[i], file: frames[i+1]})
	}
	return out
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{
			"innermost emulator frame wins",
			stack("runtime.mallocgc", "/go/src/runtime/malloc.go",
				"macedon/internal/transport.(*reliable).Send", "/src/internal/transport/reliable.go",
				"macedon/internal/core.(*Node).send", "/src/internal/core/node.go",
				"macedon/internal/harness.RunScenarioExec", "/src/internal/harness/scenario.go"),
			"transport",
		},
		{
			"sha1 counts against the hash",
			stack("crypto/sha1.blockAMD64", "/go/src/crypto/sha1/sha1block_amd64.go",
				"crypto/sha1.(*digest).Write", "/go/src/crypto/sha1/sha1.go",
				"macedon/internal/overlay.HashBytes", "/src/internal/overlay/hash.go",
				"macedon/internal/overlay.HashAddress", "/src/internal/overlay/hash.go",
				"macedon/internal/overlays/genchord.(*agent).route", "/src/internal/overlays/genchord/genchord.go"),
			"overlay.hash",
		},
		{
			"background GC has no emulator frame",
			stack("runtime.scanobject", "/go/src/runtime/mgcmark.go",
				"runtime.gcDrain", "/go/src/runtime/mgcmark.go",
				"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"),
			gcLayer,
		},
		{"empty stack", nil, gcLayer},
		{
			"scheduler file",
			stack("macedon/internal/simnet.(*eventHeap).pop", "/src/internal/simnet/scheduler.go"),
			"simnet.sched",
		},
		{
			"network file",
			stack("macedon/internal/simnet.(*Network).enqueue", "/src/internal/simnet/network.go",
				"macedon/internal/simnet.(*event).exec", "/src/internal/simnet/scheduler.go"),
			"simnet.net",
		},
		{
			"codec",
			stack("macedon/internal/overlay.(*Writer).U32", "/src/internal/overlay/codec.go"),
			"overlay.codec",
		},
		{
			"key-space arithmetic is protocol routing",
			stack("macedon/internal/overlay.Key.Between", "/src/internal/overlay/overlay.go"),
			"overlays",
		},
		{
			"statecopy closure",
			stack("macedon/internal/statecopy.(*capturer).capture.func1", "/src/internal/statecopy/statecopy.go"),
			"statecopy",
		},
		{
			"scenario compiler",
			stack("macedon/internal/scenario.Compile", "/src/internal/scenario/schedule.go"),
			"harness",
		},
		{
			"unclaimed emulator package",
			stack("macedon/internal/check.Run", "/src/internal/check/check.go"),
			"harness",
		},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
		if !slices.Contains(cpuLayers, layerOf(c.stack)) {
			t.Errorf("%s: layer %q is not reported", c.name, layerOf(c.stack))
		}
	}
}

// TestDecodeProfile decodes a real allocation profile of this process and
// checks that the layer buckets account for every sampled byte.
func TestDecodeProfile(t *testing.T) {
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = 512 * 1024 }()
	var keep [][]byte
	for i := 0; i < 100; i++ {
		keep = append(keep, make([]byte, 4096))
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(buf.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var total, bucketed int64
	found := false
	for _, s := range samples {
		total += s.value
		for _, f := range s.stack {
			if f.fn == "macedon/perfbench.TestDecodeProfile" {
				found = true
			}
		}
	}
	for _, v := range byLayer(samples) {
		bucketed += v
	}
	if len(keep) == 0 || !found {
		t.Fatalf("no sample names this test's allocation (%d samples)", len(samples))
	}
	if total <= 0 || bucketed != total {
		t.Fatalf("layers hold %d of %d sampled bytes", bucketed, total)
	}
	if _, err := decodeProfile(buf.Bytes(), "no_such_type"); err == nil {
		t.Fatal("decoding a missing sample type succeeded")
	}
}

func TestOpFailRatioLookups(t *testing.T) {
	r := &scenario.Report{Phases: []scenario.PhaseReport{
		{OpsSent: 100, OpsDelivered: 90, OpsSkipped: 7, LiveNodes: 280},
		{OpsSent: 50, OpsDelivered: 50, LiveNodes: 290},
	}}
	base, del := opCounts(r, false)
	if base != 150 || del != 140 {
		t.Fatalf("opCounts = %d/%d, want 140/150", del, base)
	}
	if got, want := opFailRatio(base, del), 10.0/150; math.Abs(got-want) > 1e-15 {
		t.Fatalf("op_fail_ratio = %v, want %v", got, want)
	}
}

func TestOpFailRatioMulticast(t *testing.T) {
	// Each packet should reach every live node but the source.
	r := &scenario.Report{Phases: []scenario.PhaseReport{
		{OpsSent: 10, OpsDelivered: 990, LiveNodes: 100},
		{OpsSent: 20, OpsDelivered: 1900, LiveNodes: 98},
	}}
	base, del := opCounts(r, true)
	if base != 10*99+20*97 || del != 2890 {
		t.Fatalf("opCounts = %d/%d, want 2890/%d", del, base, 10*99+20*97)
	}
	if got, want := opFailRatio(base, del), 40.0/2930; math.Abs(got-want) > 1e-15 {
		t.Fatalf("op_fail_ratio = %v, want %v", got, want)
	}
}

func TestSweepPktsCountsPrefixOnce(t *testing.T) {
	branch := func(final, phase1, phase2 uint64) *scenario.Report {
		r := &scenario.Report{Phases: make([]scenario.PhaseReport, 2)}
		r.Final.Sent = final
		r.Phases[0].Net.Sent = phase1
		r.Phases[1].Net.Sent = phase2
		return r
	}
	// A 1000-datagram prefix, then branches of 30, 50 and 70.
	reps := []*scenario.Report{branch(1030, 20, 10), branch(1050, 40, 10), branch(1070, 60, 10)}
	if got := sweepPkts(reps); got != 1150 {
		t.Fatalf("sweepPkts = %d, want 1150", got)
	}
}

func TestChurnEvents(t *testing.T) {
	const nodes, span, down = 20, 10 * time.Second, 3 * time.Second
	evs := churnEvents(rand.New(rand.NewSource(1)), 30, span, down, nodes)
	upAt := map[int]bool{}
	kills := 0
	var last time.Duration
	for _, e := range evs {
		if e.At.D() < last || e.At.D() >= span {
			t.Fatalf("event %+v out of order or outside the span", e)
		}
		last = e.At.D()
		switch e.Kind {
		case scenario.EvKill:
			if e.Node == 0 || upAt[e.Node] {
				t.Fatalf("kill of node %d that is the bootstrap or already down", e.Node)
			}
			upAt[e.Node] = true
			kills++
		case scenario.EvRevive:
			if !upAt[e.Node] {
				t.Fatalf("revive of node %d that is up", e.Node)
			}
			upAt[e.Node] = false
		}
	}
	if kills != 30 {
		t.Fatalf("%d kills, want 30", kills)
	}
	if !slices.Equal(evs, churnEvents(rand.New(rand.NewSource(1)), 30, span, down, nodes)) {
		t.Fatal("the same seed drew different churn")
	}
}

func TestWorkloadsCompile(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, DefaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := w.compile(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestMulticastVictimsAreLastJoiners pins the leaf-churn choice: every
// victim is among the latest joiners, and each is back before the phase
// ends.
func TestMulticastVictimsAreLastJoiners(t *testing.T) {
	s, err := multicastStream(HeldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scenario.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	var cutoff time.Duration
	joinAt := map[int]time.Duration{}
	var ats []time.Duration
	for _, op := range sched.Ops {
		if op.Kind == scenario.OpSpawn && op.Node != 0 {
			joinAt[op.Node] = op.At
			ats = append(ats, op.At)
		}
	}
	slices.Sort(ats)
	waves := int(churnPhase/wavePeriod) - 1
	cutoff = ats[len(ats)-waves*leafWave]
	ph := s.Phases[1]
	if len(ph.Events) != 2*waves*leafWave {
		t.Fatalf("%d churn events, want %d", len(ph.Events), 2*waves*leafWave)
	}
	for _, e := range ph.Events {
		if joinAt[e.Node] < cutoff {
			t.Fatalf("victim %d joined at %v, before the last joiners (%v)", e.Node, joinAt[e.Node], cutoff)
		}
	}
	if rep := s.Phases[1].Events[len(ph.Events)-1]; rep.Kind != scenario.EvRevive || rep.At.D() >= churnPhase {
		t.Fatalf("last churn event %+v is not a revive inside the phase", rep)
	}
}
