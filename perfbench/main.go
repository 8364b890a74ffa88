// Command perfbench is the repository's end-to-end benchmark of the MACEDON
// emulator. It runs one of three workloads (see README.md), each repetition
// in a fresh child process, checks that every repetition produced the same
// report, and prints one JSON result line.
//
//	perfbench --workload churn-lookup --seed 2004 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (medians over the
// repetitions); with --trace 1 it carries the per-layer metrics of one
// traced run. run.sh builds this package and forwards its arguments.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "churn-lookup", "workload name")
	seed := flag.Int64("seed", DefaultSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics of a traced run")
	child := flag.String("child", "", "internal: run one repetition in this mode")
	flag.Parse()

	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *workload, workloadNames)
		os.Exit(2)
	}
	if *child != "" {
		if err := runChild(*child, *workload, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*workload, *seed)
	} else {
		res, err = runMeasured(*workload, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// minReps is the fewest repetitions a measured run makes, however long each
// takes: a median needs at least three values to shed one outlier.
const minReps = 3

// runMeasured repeats the workload in fresh processes until the budget is
// spent and reports the median of each end-to-end metric.
func runMeasured(workload string, seed int64, budget time.Duration) (*result, error) {
	start := time.Now()
	var reps []*childResult
	var durs []float64 // seconds per repetition
	failed := 0
	for len(reps)+failed < minReps || time.Since(start)+time.Duration(medianF(durs)*1e9) <= budget {
		t0 := time.Now()
		cr, err := spawnChild("run", workload, seed)
		durs = append(durs, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: repetition failed:", err)
			failed++
			if failed > minReps {
				break
			}
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d: run_s=%.3f cpu_s=%.3f setup_s=%.5f\n", len(reps)+1, cr.RunS, cr.CPUS, cr.SetupS)
		reps = append(reps, cr)
	}
	res := &result{Correct: failed == 0, Attempted: len(reps) + failed, Failed: failed, Metrics: map[string]metric{}}
	if len(reps) == 0 {
		return res, nil
	}
	if err := sameOutput(reps); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d reps=%d digest=%s\n", workload, seed, len(reps), reps[0].Digest)
	col := func(f func(*childResult) float64) float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return medianF(vs)
	}
	res.Metrics["run_s"] = metric{col(func(r *childResult) float64 { return r.RunS }), "s"}
	res.Metrics["cpu_s"] = metric{col(func(r *childResult) float64 { return r.CPUS }), "s"}
	res.Metrics["setup_s"] = metric{col(func(r *childResult) float64 { return r.SetupS }), "s"}
	res.Metrics["pkts_per_s"] = metric{col(func(r *childResult) float64 { return float64(r.Pkts) / r.RunS }), "1/s"}
	res.Metrics["peak_rss_mb"] = metric{col(func(r *childResult) float64 { return r.PeakRSSMB }), "MB"}
	res.Metrics["alloc_mb"] = metric{col(func(r *childResult) float64 { return r.AllocMB }), "MB"}
	res.Metrics["op_fail_ratio"] = metric{reps[0].failRatio(), "ratio"}
	return res, nil
}

// sameOutput is the output check of a measured run: the simulation is
// deterministic, so every repetition must print the same report digest and
// the same work and delivery counts.
func sameOutput(reps []*childResult) error {
	ref := reps[0]
	for i, r := range reps[1:] {
		if r.Digest != ref.Digest || r.Pkts != ref.Pkts || r.OpBase != ref.OpBase || r.OpDelivered != ref.OpDelivered {
			return fmt.Errorf("repetition %d diverged: digest %s pkts %d ops %d/%d, want %s pkts %d ops %d/%d",
				i+2, r.Digest, r.Pkts, r.OpDelivered, r.OpBase, ref.Digest, ref.Pkts, ref.OpDelivered, ref.OpBase)
		}
	}
	if f := ref.failRatio(); math.IsNaN(f) || f < 0 || f >= 1 {
		return fmt.Errorf("op_fail_ratio %v outside [0,1)", f)
	}
	return nil
}

// spawnChild runs one repetition in a fresh process of this binary and
// decodes the JSON it prints on its last output line.
func spawnChild(mode, workload string, seed int64) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--child", mode, "--workload", workload, "--seed", strconv.FormatInt(seed, 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var cr childResult
	if err := json.Unmarshal(lines[len(lines)-1], &cr); err != nil {
		return nil, fmt.Errorf("%s child output: %w", mode, err)
	}
	return &cr, nil
}

// medianF returns the middle value (the mean of the middle two for an even
// count), or 0 for none.
func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
