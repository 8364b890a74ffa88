package main

import (
	"fmt"
	"time"

	"macedon/internal/harness"
	"macedon/internal/overlay"
	"macedon/internal/scenario"
	"macedon/internal/simnet"
	"macedon/internal/topology"
	"macedon/internal/transport"
)

// Layer probes: fixed-iteration loops over one layer's public entry points,
// reporting wall time per call. Iteration counts derive from the traced
// run's deterministic counts, so one seed always probes the same amount of
// work, and a change to one layer's unit cost shows here directly.

// sink keeps probe results live so the compiler cannot drop the calls.
var sink uint64

// clampIters bounds a probe's iteration count.
func clampIters(n, lo, hi uint64) int {
	return int(max(lo, min(hi, n)))
}

// nsPer returns nanoseconds per operation.
func nsPer(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// probeHash times overlay.HashAddress, the SHA-1 node-identifier map.
func probeHash(iters int) float64 {
	var acc overlay.Key
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		acc ^= overlay.HashAddress(overlay.Address(i))
	}
	d := time.Since(t0)
	sink += uint64(acc)
	return nsPer(d, iters)
}

// probeMsg is a message carrying an opaque payload, the shape of a
// workload datagram.
type probeMsg struct{ payload []byte }

func (m *probeMsg) MsgName() string                { return "probe" }
func (m *probeMsg) Encode(w *overlay.Writer)       { w.Bytes32(m.payload) }
func (m *probeMsg) Decode(r *overlay.Reader) error { m.payload = r.Bytes32(); return r.Err() }

// probeCodec times one EncodeMessage plus the NewReader parse of its frame,
// alternating 64-byte and 1000-byte payloads; the result is the mean over
// both sizes.
func probeCodec(iters int) (float64, error) {
	reg := overlay.NewRegistry("perfbench")
	id := reg.Register("probe", func() overlay.Message { return &probeMsg{} })
	msgs := []*probeMsg{{payload: make([]byte, 64)}, {payload: make([]byte, 1000)}}
	var acc uint64
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		frame, err := overlay.EncodeMessage(reg, msgs[i&1])
		if err != nil {
			return 0, err
		}
		r := overlay.NewReader(frame)
		if r.U16() != id {
			return 0, fmt.Errorf("codec probe: bad type header")
		}
		acc += uint64(len(r.Bytes32()))
		if r.Err() != nil || r.Remaining() != 0 {
			return 0, fmt.Errorf("codec probe: round trip failed: %v", r.Err())
		}
	}
	d := time.Since(t0)
	sink += acc
	return nsPer(d, iters), nil
}

// probeTimers times Scheduler.After plus the RunFor that fires it, with the
// heap held at depth pending by far-future timers.
func probeTimers(iters, pending int) float64 {
	const batch = 256
	s := simnet.NewScheduler(1)
	for i := 0; i < pending; i++ {
		s.After(24*time.Hour+time.Duration(i), func() {})
	}
	fired := 0
	fire := func() { fired++ }
	iters = (iters + batch - 1) / batch * batch
	t0 := time.Now()
	for i := 0; i < iters; i += batch {
		for j := 0; j < batch; j++ {
			s.After(time.Duration((i+j*7919)%1000)*time.Microsecond, fire)
		}
		s.RunFor(time.Millisecond)
	}
	d := time.Since(t0)
	sink += uint64(fired)
	return nsPer(d, iters)
}

// probeTransport times a reliable (TCP-discipline) send of a 1000-byte
// frame between two emulated endpoints, including the emulated delivery
// and acknowledgement.
func probeTransport(iters int) (float64, error) {
	const batch = 64
	g := topology.NewGraph()
	r1, r2 := g.AddRouter(), g.AddRouter()
	g.AddLink(r1, r2, 5*time.Millisecond, 1_000_000_000, 8<<20)
	access := topology.AccessLink{Latency: time.Millisecond, Bandwidth: 1_000_000_000, QueueBytes: 8 << 20}
	g.AttachClient(1, r1, access)
	g.AttachClient(2, r2, access)
	s := simnet.NewScheduler(1)
	n := simnet.New(s, g, simnet.Config{})
	epa, err := n.Endpoint(1)
	if err != nil {
		return 0, err
	}
	epb, err := n.Endpoint(2)
	if err != nil {
		return 0, err
	}
	a, b := transport.NewMux(epa, n), transport.NewMux(epb, n)
	a.AddTCP("t")
	b.AddTCP("t")
	got := 0
	b.SetRecv(func(_ string, _ overlay.Address, frame []byte) { got += len(frame) })
	tr, err := a.ByName("t")
	if err != nil {
		return 0, err
	}
	frame := make([]byte, 1000)
	iters = (iters + batch - 1) / batch * batch
	t0 := time.Now()
	for i := 0; i < iters; i += batch {
		for j := 0; j < batch; j++ {
			if err := tr.Send(2, frame); err != nil {
				return 0, err
			}
		}
		s.RunUntilIdle()
	}
	d := time.Since(t0)
	if got != iters*len(frame) {
		return 0, fmt.Errorf("transport probe: received %d bytes, sent %d", got, iters*len(frame))
	}
	return nsPer(d, iters), nil
}

// statecopyReps is how many checkpoints and restores the statecopy probe
// takes the median of.
const statecopyReps = 5

// probeStatecopy builds the workload's settled world through the public
// cluster API — every setup spawn of the compiled schedule, run to just
// before the settle boundary, where sweeps fork — and times
// Cluster.Checkpoint and Cluster.Restore on it. Each restore follows a
// second of divergent simulation, as a sweep branch's would.
func probeStatecopy(s *scenario.Scenario) (checkpoint, restore float64, err error) {
	sched, err := scenario.Compile(s)
	if err != nil {
		return 0, 0, err
	}
	stack, err := harness.ScenarioStack(s.Protocol)
	if err != nil {
		return 0, 0, err
	}
	c, err := harness.NewCluster(clusterConfig(s))
	if err != nil {
		return 0, 0, err
	}
	defer c.StopAll()
	for _, op := range sched.Ops {
		if op.Phase < 0 && op.Kind == scenario.OpSpawn {
			c.SpawnAt(op.Node, stack, op.At)
		}
	}
	c.RunFor(sched.Settle - time.Nanosecond)
	cps := make([]float64, statecopyReps)
	rss := make([]float64, statecopyReps)
	var cp *harness.Checkpoint
	for i := range cps {
		t0 := time.Now()
		cp = c.Checkpoint()
		cps[i] = time.Since(t0).Seconds()
	}
	for i := range rss {
		c.RunFor(time.Second)
		t0 := time.Now()
		c.Restore(cp)
		rss[i] = time.Since(t0).Seconds()
	}
	return medianF(cps), medianF(rss), nil
}
