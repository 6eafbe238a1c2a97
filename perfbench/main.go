// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself: run.sh builds cmd/sweep, cmd/sharingd and cmd/fleet from
// the checkout and then runs this program, which drives one workload:
//
//	sweep  cmd/sweep -exp fig12 over all profiles (simulator, traces, pool)
//	serve  cmd/sharingd under an open-loop then a closed-loop HTTP load
//	fleet  cmd/fleet with adaptive prices over simulator-measured surfaces
//
// Every size and rate comes from a flag, and BENCHMARK.json fixes them all
// in its command line; each run adds --workload, --seed, --seconds and
// --trace. The last line of standard output is the result object, holding
// exactly the metrics BENCHMARK.json lists; the line before it is the full
// report (host block, per-phase counts, checks). With --trace 1 the run
// drives all three workloads, replays each one's inputs through in-process
// calls into the layers, reports the per-layer metrics, and writes the
// recorded spans under .bench_build/perfbench/. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the benchmark's inputs. Sizes and rates are flags without a
// usable default, so BENCHMARK.json, which passes them all, is the one
// place they are fixed.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int

	setupReps      int
	sweepSetupReps int

	sweepN int

	serveN       int
	serveBenches string
	bidRate      float64
	opRate       float64
	randPrices   int
	vms          int
	openShare    float64

	fleetN        int
	fleetMachines int
	fleetEvents   int
	fleetRate     float64
	fleetLife     float64
	fleetEpoch    float64
	fleetBenches  string
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: sweep, serve or fleet")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (same seed, same inputs)")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.IntVar(&o.setupReps, "setup-reps", 0, "serve and fleet: set-up repetitions; setup_s is their median")
	fs.IntVar(&o.sweepSetupReps, "sweep-setup-reps", 0, "sweep: set-up repetitions; setup_s is their median")
	fs.IntVar(&o.sweepN, "sweep-n", 0, "sweep: instructions per thread")
	fs.IntVar(&o.serveN, "serve-n", 0, "serve: instructions per thread of the measured surfaces")
	fs.StringVar(&o.serveBenches, "serve-benches", "", "serve: comma-separated benchmarks bids and VMs draw from")
	fs.Float64Var(&o.bidRate, "serve-bid-rate", 0, "serve: open-loop bids per second")
	fs.Float64Var(&o.opRate, "serve-op-rate", 0, "serve: open-loop membership ops per second")
	fs.IntVar(&o.randPrices, "serve-random-prices", 0, "serve: seeded random price vectors beside the 3 paper markets")
	fs.IntVar(&o.vms, "serve-vms", 0, "serve: VM names membership ops cycle through")
	fs.Float64Var(&o.openShare, "serve-open-share", 0, "serve: share of --seconds spent in the open-loop phase, in (0, 1)")
	fs.IntVar(&o.fleetN, "fleet-n", 0, "fleet: instructions per thread of the measured surfaces")
	fs.IntVar(&o.fleetMachines, "fleet-machines", 0, "fleet: machines")
	fs.IntVar(&o.fleetEvents, "fleet-events", 0, "fleet: VM lifecycle events")
	fs.Float64Var(&o.fleetRate, "fleet-rate", 0, "fleet: mean VM arrivals per simulated second")
	fs.Float64Var(&o.fleetLife, "fleet-life", 0, "fleet: mean VM lifetime in simulated seconds")
	fs.Float64Var(&o.fleetEpoch, "fleet-epoch", 0, "fleet: simulated seconds per pricing epoch")
	fs.StringVar(&o.fleetBenches, "fleet-benches", "", "fleet: comma-separated benchmarks bids draw from")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1")
	case o.seed < 0:
		return o, fmt.Errorf("--seed must be non-negative")
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	ints := map[string]int{
		"setup-reps": o.setupReps, "sweep-setup-reps": o.sweepSetupReps, "sweep-n": o.sweepN,
		"serve-n": o.serveN, "serve-random-prices": o.randPrices, "serve-vms": o.vms,
		"fleet-n": o.fleetN, "fleet-machines": o.fleetMachines, "fleet-events": o.fleetEvents,
	}
	floats := map[string]float64{
		"serve-bid-rate": o.bidRate, "serve-op-rate": o.opRate, "serve-open-share": o.openShare,
		"fleet-rate": o.fleetRate, "fleet-life": o.fleetLife, "fleet-epoch": o.fleetEpoch,
	}
	lists := map[string]string{"serve-benches": o.serveBenches, "fleet-benches": o.fleetBenches}
	var missing []string
	for name, v := range ints {
		if v <= 0 {
			missing = append(missing, name)
		}
	}
	for name, v := range floats {
		if !(v > 0) {
			missing = append(missing, name)
		}
	}
	for name, v := range lists {
		if v == "" {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return o, fmt.Errorf("--%s must be given and positive (BENCHMARK.json's command passes every size and rate)",
			strings.Join(missing, ", --"))
	}
	if o.openShare >= 1 {
		return o, fmt.Errorf("--serve-open-share must be below 1")
	}
	return o, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome collects what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	e2e, layer        map[string]metric
	problems          []string
	detail            map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}, detail: map[string]any{}}
}

// fail records a failed output check; the run then reports correct=false
// and exits non-zero.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// check records err, if any, as a failed output check.
func (o *outcome) check(what string, err error) {
	if err != nil {
		o.fail("%s: %v", what, err)
	}
}

// bench is one run's environment.
type bench struct {
	o     options
	root  string
	bin   string
	work  string // per-run working files, removed at exit
	out   string // spans and reports, kept
	procs int
	tr    *tracer // nil in untraced runs
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b, err := newBench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want, err := manifestMetrics(b.root, o.trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	began, steal0 := time.Now(), stealSeconds()
	oc, err := b.runWorkload(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.tr != nil {
		oc.layer["traced.wall_s"] = metric{time.Since(began).Seconds(), "s"}
	}
	res := result{Correct: len(oc.problems) == 0, Attempted: oc.attempted, Failed: oc.failed}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing was attempted")
		return 1
	}
	measured := oc.e2e
	if b.tr != nil {
		measured = oc.layer
	}
	if res.Metrics, err = pickMetrics(measured, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": hostBlock(b.root), "problems": oc.problems, "detail": oc.detail,
		"end_to_end": oc.e2e, "per_layer": oc.layer,
		"wall_s": time.Since(began).Seconds(), "steal_s": stealSeconds() - steal0,
	}
	repJSON, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stem := filepath.Join(b.out, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, o.trace))
	if err := os.WriteFile(stem+".report.json", repJSON, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.tr != nil {
		if err := b.tr.write(stem + ".spans.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	for _, p := range oc.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(repJSON))
	fmt.Println(string(resJSON))
	if !res.Correct {
		return 1
	}
	return 0
}

// newBench sets up a run in the checkout root, the working directory:
// run.sh has built the programs into .bench_build/bin, and every file the
// run writes goes under .bench_build/perfbench.
func newBench(o options) (*bench, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, root: root, bin: filepath.Join(root, ".bench_build", "bin"), procs: runtime.NumCPU()}
	for _, name := range []string{"sweep", "sharingd", "fleet"} {
		if _, err := os.Stat(filepath.Join(b.bin, name)); err != nil {
			return nil, fmt.Errorf("program %s not built: %w", name, err)
		}
	}
	b.out = filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return nil, err
	}
	b.work, err = os.MkdirTemp(b.out, "work-")
	if err != nil {
		return nil, err
	}
	if o.trace == 1 {
		b.tr = newTracer()
	}
	return b, nil
}

// workloadRun is one of the benchmark's workloads.
type workloadRun struct {
	name string
	run  func(*bench, context.Context) (*outcome, error)
}

var workloads = []workloadRun{
	{"sweep", (*bench).runSweep},
	{"serve", (*bench).runServe},
	{"fleet", (*bench).runFleet},
}

// runWorkload runs the named workload. A traced run reports every layer's
// metrics, and each workload drives only some of the layers, so it runs
// all the workloads, the named one first, each for an equal share of
// --seconds. Its end-to-end numbers are the named workload's.
func (b *bench) runWorkload(ctx context.Context) (*outcome, error) {
	var order []workloadRun
	for _, w := range workloads {
		if w.name == b.o.workload {
			order = append([]workloadRun{w}, order...)
		} else {
			order = append(order, w)
		}
	}
	if order[0].name != b.o.workload {
		return nil, fmt.Errorf("unknown workload %q (want sweep, serve or fleet)", b.o.workload)
	}
	if b.tr == nil {
		return order[0].run(b, ctx)
	}
	b.o.seconds = max(b.o.seconds/len(order), 1)
	all := newOutcome()
	for _, w := range order {
		oc, err := w.run(b, ctx)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", w.name, err)
		}
		all.attempted += oc.attempted
		all.failed += oc.failed
		all.problems = append(all.problems, oc.problems...)
		for k, v := range oc.layer {
			all.layer[k] = v
		}
		for k, v := range oc.detail {
			all.detail[k] = v
		}
		if w.name == b.o.workload {
			all.e2e = oc.e2e
		}
	}
	return all, nil
}

// manifestMetrics reads the metric names and units BENCHMARK.json, at the
// checkout root, promises for a run: the end-to-end ones for an untraced
// run, the per-layer ones for a traced run.
func manifestMetrics(root string, traced bool) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	type entry struct{ Name, Unit string }
	var m struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := m.EndToEnd
	if traced {
		list = m.PerLayer
	}
	units := map[string]string{}
	for _, e := range list {
		units[e.Name] = e.Unit
	}
	return units, nil
}

// pickMetrics returns exactly the metrics the manifest promises, or an
// error naming one that is missing or in another unit.
func pickMetrics(got map[string]metric, want map[string]string) (map[string]metric, error) {
	out := map[string]metric{}
	var bad []string
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			bad = append(bad, name+" (missing)")
		case m.Unit != unit:
			bad = append(bad, fmt.Sprintf("%s (unit %s, BENCHMARK.json says %s)", name, m.Unit, unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			bad = append(bad, name+" (not a number)")
		default:
			out[name] = m
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, fmt.Errorf("metrics do not match BENCHMARK.json: %s", strings.Join(bad, ", "))
	}
	return out, nil
}

// prog returns the absolute path of a built program.
func (b *bench) prog(name string) string { return filepath.Join(b.bin, name) }

// deadline is when a measured phase that starts now must stop issuing new
// work.
func (b *bench) deadline() time.Time {
	return time.Now().Add(time.Duration(b.o.seconds) * time.Second)
}

// hostBlock describes the machine and the code measured.
func hostBlock(root string) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceDigest(root),
	}
}

// stealSeconds reads the CPU time the hypervisor gave to other guests
// (the steal column of /proc/stat, in USER_HZ = 100 ticks per second). A
// run whose steal time is large measured a contended host.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code measured. The checkout the benchmark
// runs in need not be a git repository, so the identity is an FNV-1a
// digest over every Go source and module file, in path order.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := newFNV()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h = h.bytes([]byte(rel)).bytes(data)
	}
	return fmt.Sprintf("src-fnv64-%016x (%d files)", uint64(h), len(files))
}
