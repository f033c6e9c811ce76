// Command perfbench is PAC's benchmark. One run executes one workload
// in a fresh process and prints its metrics as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload finetune --seed 1 --seconds 50 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with all
// instrumentation off. With --trace 1 it first runs the same workload
// untraced in a child process, then traced in this one, and prints the
// per-layer metrics plus the traced-minus-untraced overhead of every
// end-to-end metric; the spans go to <out-dir>/trace-<workload>-<seed>.json.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"pac/internal/loadgen"
	"pac/internal/telemetry"
	"pac/internal/tensor"
	"pac/internal/traceanalysis"
)

// procs pins both GOMAXPROCS and the tensor kernel workers, so runs on
// machines with more cores stay comparable.
const procs = 2

const backend = "generic"

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: finetune or serve_train")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 50, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	outDir := flag.String("out-dir", ".bench_build", "directory for the span dump")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func pin() error {
	runtime.GOMAXPROCS(procs)
	tensor.SetMaxWorkers(procs)
	return tensor.SetBackend(backend)
}

func run(name string, seed int64, seconds float64, traced bool, outDir string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if err := pin(); err != nil {
		return err
	}
	var res result
	var o *outcome
	if !traced {
		o, err = runWorkload(w, seed, seconds, nil)
		if err != nil {
			return err
		}
		res = result{Metrics: o.endToEndMetrics()}
		res.Attempted, res.Failed = o.totals()
	} else {
		untraced, err := runChild(name, seed, seconds)
		if err != nil {
			return err
		}
		pr := newProbes(seed)
		o, err = runWorkload(w, seed, seconds, pr)
		if err != nil {
			return err
		}
		evs := pr.chrome()
		errs := traceanalysis.Check(evs)
		o.ck.expect("span dump passes the trace schema check", len(errs) == 0, "%v", errs)
		worst := o.worstParts()
		o.ck.expect("phase-1 device parts sum to the wall time", worst <= partsTolerance,
			"worst device residual %.3f of wall > tolerance %.2f", worst, partsTolerance)
		if err := writeTrace(outDir, name, seed, evs); err != nil {
			return err
		}
		res = result{Metrics: o.perLayerMetrics(pr, untraced.Metrics)}
		res.Attempted, res.Failed = o.totals()
		res.Attempted += untraced.Attempted
		res.Failed += untraced.Failed
	}
	res.Correct = res.Failed == 0
	for _, f := range o.ck.failed {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	prov := map[string]interface{}{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "tensor_workers": tensor.MaxWorkers(),
		"backend": tensor.ActiveBackend().Name(), "nproc": runtime.NumCPU(),
		"checks": o.ck.run, "checks_failed": len(o.ck.failed),
		"final_loss": finalLoss(o), "requests": counts(o),
		"accuracy_floor": w.Train.AccuracyFloor, "parts_tolerance": partsTolerance,
	}
	pb, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", pb)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

func finalLoss(o *outcome) float64 {
	if o.trainer != nil && len(o.trainer.losses) > 0 {
		return o.trainer.losses[len(o.trainer.losses)-1]
	}
	if len(o.cycles) > 0 {
		return o.cycles[len(o.cycles)-1].finalLoss
	}
	return 0
}

func counts(o *outcome) map[string]int64 {
	out := map[string]int64{}
	for _, op := range []loadgen.Op{loadgen.OpClassify, loadgen.OpGenerate} {
		sent, ok := o.opCounts(op)
		out[string(op)+"_sent"], out[string(op)+"_ok"], out[string(op)+"_failed"] = sent, ok, sent-ok
	}
	return out
}

// runChild runs the workload untraced in a fresh process (so its max
// RSS is its own) and returns its result line.
func runChild(name string, seed int64, seconds float64) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("untraced run: %w", err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("untraced run output: %w", err)
	}
	return res, nil
}

func writeTrace(dir, name string, seed int64, evs []telemetry.ChromeEvent) error {
	b, err := telemetry.EncodeChromeJSON(evs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", name, seed)), b, 0o644)
}
