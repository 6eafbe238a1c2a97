package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"sharing/internal/econ"
	"sharing/internal/experiments"
	"sharing/internal/sim"
	"sharing/internal/trace"
	"sharing/internal/workload"
)

// The sweep workload: cmd/sweep -exp fig12 over every profile at a short
// trace length, default execution flags, a trace cache the set-up filled,
// and a cold results cache on every repetition.

const fig12CacheKB = 128 // Fig. 12 fixes the L2 at 128 KB

// point is one Fig. 12 measurement and its outcome.
type point struct {
	bench   string
	slices  int
	threads int
	cycles  int64
	insts   uint64
}

// fig12Points lists the grid in canonical order: benchmarks by name, then
// Slice count ascending.
func fig12Points(benches []string) ([]point, error) {
	var pts []point
	for _, b := range benches {
		prof, err := workload.Lookup(b)
		if err != nil {
			return nil, err
		}
		for _, s := range experiments.StdSlices {
			pts = append(pts, point{bench: b, slices: s, threads: prof.Threads})
		}
	}
	return pts, nil
}

// sweepFingerprint folds every point's cycles and instructions, in the
// order given, into one FNV-1a digest.
func sweepFingerprint(pts []point) fnv64 {
	h := newFNV()
	for _, p := range pts {
		h = h.bytes([]byte(p.bench)).word(uint64(p.slices)).word(uint64(p.cycles)).word(p.insts)
	}
	return h
}

// resultKey is the results-file key cmd/sweep writes for a whole-program
// point (see experiments.Runner: bench/slices/cache/length/seed/phase/opnet).
func resultKey(bench string, slices, cacheKB, n int, seed int64) string {
	return fmt.Sprintf("%s/s%d/c%d/n%d/seed%d/ph-1/w0", bench, slices, cacheKB, n, seed)
}

// readSweepResults fills pts from a cmd/sweep results file. Points the file
// lacks are returned as missing.
func readSweepResults(path string, pts []point, n int, seed int64) (got []point, missing int, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var ms map[string]experiments.Measurement
	if err := json.Unmarshal(raw, &ms); err != nil {
		return nil, 0, fmt.Errorf("results %s: %w", path, err)
	}
	got = append([]point(nil), pts...)
	for i := range got {
		m, ok := ms[resultKey(got[i].bench, got[i].slices, fig12CacheKB, n, seed)]
		if !ok {
			missing++
			continue
		}
		got[i].cycles, got[i].insts = m.Cycles, m.Insts
	}
	return got, missing, nil
}

// comparePoints returns an error naming the first point where got and want
// differ.
func comparePoints(got, want []point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.bench != w.bench || g.slices != w.slices || g.cycles != w.cycles || g.insts != w.insts {
			return fmt.Errorf("%s s=%d: cycles=%d insts=%d, want cycles=%d insts=%d",
				w.bench, w.slices, g.cycles, g.insts, w.cycles, w.insts)
		}
	}
	return nil
}

// traceFile is the trace-cache name the Runner reads for a whole-program
// trace: {bench}_n{len}_seed{seed}_ph{phase}.strc.
func traceFile(dir, bench string, n int, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s_n%d_seed%d_ph-1.strc", bench, n, seed))
}

// synthesizeTraces generates every benchmark's trace and writes it into
// the trace cache dir, returning the time spent in Profile.Generate alone.
func (b *bench) synthesizeTraces(dir string, benches []string, n int, seed int64, parent int64) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var gen time.Duration
	for i, name := range benches {
		prof, err := workload.Lookup(name)
		if err != nil {
			return 0, err
		}
		sp := b.tr.begin("workload.Generate", parent, int64(i+1))
		mt, err := prof.Generate(n, seed)
		gen += sp.end()
		if err != nil {
			return 0, fmt.Errorf("generate %s: %w", name, err)
		}
		sp = b.tr.begin("trace.Write", parent, int64(i+1))
		err = writeTrace(traceFile(dir, name, n, seed), mt)
		sp.end()
		if err != nil {
			return 0, err
		}
	}
	return gen, nil
}

func writeTrace(path string, mt *trace.MultiTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, mt); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// fileID identifies one file's contents on disk: a regenerated trace is
// written to a temp file and renamed over the old one, which changes the
// inode and the modification time.
type fileID struct {
	size, ino int64
	mtime     time.Time
}

func idOf(fi os.FileInfo) fileID {
	id := fileID{size: fi.Size(), mtime: fi.ModTime()}
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		id.ino = int64(st.Ino)
	}
	return id
}

func snapshotDir(dir string) (map[string]fileID, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]fileID, len(ents))
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[e.Name()] = idOf(fi)
	}
	return out, nil
}

// compareSnapshots reports a file that appeared, vanished or was rewritten.
func compareSnapshots(before, after map[string]fileID) error {
	for name, id := range after {
		old, ok := before[name]
		switch {
		case !ok:
			return fmt.Errorf("%s appeared", name)
		case old != id:
			return fmt.Errorf("%s was rewritten", name)
		}
	}
	for name := range before {
		if _, ok := after[name]; !ok {
			return fmt.Errorf("%s vanished", name)
		}
	}
	return nil
}

// resultsState is a results cache as it lies on disk: the main file, which
// Runner.Save rewrites through a temp file and a rename only when a
// simulation added to it, and the length of the <results>.wal journal each
// simulation appends to until that save folds it in and truncates it. A
// program that simulated changes one or the other: the journal while it
// runs, the main file once it has saved.
type resultsState struct {
	main fileID
	wal  int64
}

func readResultsState(path string) (resultsState, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return resultsState{}, err
	}
	st := resultsState{main: idOf(fi)}
	if fi, err := os.Stat(path + ".wal"); err == nil {
		st.wal = fi.Size()
	}
	return st, nil
}

// resultsUnchanged reports how the results cache at path differs from
// before: a rewritten main file or a journal that gained entries.
func resultsUnchanged(path string, before resultsState) error {
	now, err := readResultsState(path)
	switch {
	case err != nil:
		return err
	case now.main != before.main:
		return fmt.Errorf("%s was rewritten: the program simulated and saved new measurements", path)
	case now.wal != before.wal:
		return fmt.Errorf("%s.wal went from %d to %d bytes: the program simulated", path, before.wal, now.wal)
	}
	return nil
}

func (b *bench) runSweep(ctx context.Context) (*outcome, error) {
	oc := newOutcome()
	n := b.o.sweepN
	seed := b.o.seed
	if seed == 0 {
		seed = experiments.DefaultSeed // what cmd/sweep runs for -seed 0
	}
	top := b.tr.begin("sweep", 0, 0)
	defer top.end()
	benches := workload.Names()
	want, err := fig12Points(benches)
	if err != nil {
		return nil, err
	}

	// Set-up: synthesize every trace the sweep reads into its trace cache.
	var setups, setupWalls, gens []float64
	var tc string
	for rep := 0; rep < b.o.sweepSetupReps; rep++ {
		dir := filepath.Join(b.work, fmt.Sprintf("tracecache%d", rep))
		runtime.GC() // each repetition starts from the same heap, not the last one's garbage
		cpu0 := selfCPU()
		sp := b.tr.begin("setup", top.id, int64(rep+1))
		gen, err := b.synthesizeTraces(dir, benches, n, seed, sp.id)
		setupWalls = append(setupWalls, sp.end().Seconds())
		setups = append(setups, (selfCPU() - cpu0).Seconds())
		if err != nil {
			return nil, err
		}
		gens = append(gens, gen.Seconds())
		if tc != "" {
			os.RemoveAll(tc)
		}
		tc = dir
	}
	oc.e2e["setup_s"] = metric{median(setups), "s"}
	oc.layer["workload.gen_s"] = metric{median(gens), "s"}
	cached, err := snapshotDir(tc)
	if err != nil {
		return nil, err
	}

	// Measured phase: repeat the sweep, each time with a cold results cache.
	var rates, cpuRates, rss, walls []float64
	var prints []fnv64
	var ranInsts uint64
	deadline := b.deadline()
	for rep := 1; rep == 1 || time.Now().Before(deadline); rep++ {
		res := filepath.Join(b.work, fmt.Sprintf("results%d.json", rep))
		cr, err := runChild(ctx, b.prog("sweep"), "-exp", "fig12",
			"-n", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10),
			"-q", "-tracecache", tc, "-results", res)
		oc.attempted += int64(len(want))
		if err != nil {
			oc.failed += int64(len(want))
			oc.fail("sweep run %d: %v", rep, err)
			break
		}
		b.tr.record("sweep.process", top.id, int64(rep), cr.start, cr.end)
		got, missing, err := readSweepResults(res, want, n, seed)
		if err != nil {
			return nil, err
		}
		if missing > 0 {
			oc.failed += int64(missing)
			oc.fail("sweep run %d: %d of %d points missing from the results", rep, missing, len(want))
		}
		var insts uint64
		for _, p := range got {
			insts += p.insts
		}
		if rep == 1 {
			ranInsts = insts
			want = got
		} else if err := comparePoints(got, want); err != nil {
			oc.fail("sweep run %d differs from run 1: %v", rep, err)
		}
		prints = append(prints, sweepFingerprint(got))
		walls = append(walls, cr.wall().Seconds())
		rates = append(rates, float64(insts)/cr.wall().Seconds()/1e6)
		cpuRates = append(cpuRates, float64(insts)/cr.cpu.Seconds())
		rss = append(rss, float64(cr.maxRSSKB)/1024)
		os.Remove(res)
		os.Remove(res + ".wal")
		now, err := snapshotDir(tc)
		if err != nil {
			return nil, err
		}
		oc.check(fmt.Sprintf("sweep run %d regenerated a cached trace", rep), compareSnapshots(cached, now))
	}
	// The work is simulated instructions, summed over all threads and
	// points. Per CPU-second it is the end-to-end metric; per wall-clock
	// second it also moves with the host's steal time (see README.md).
	oc.e2e["work_per_cpu_s"] = metric{median(cpuRates), "1/s"}
	oc.e2e["peak_rss_mb"] = metric{median(rss), "MB"}
	oc.layer["sweep.minst_per_s"] = metric{median(rates), "Minst/s"}
	oc.detail["sweep"] = map[string]any{
		"runs": len(walls), "wall_s": walls, "minst_per_s": rates, "insts_per_cpu_s": cpuRates, "peak_rss_mb": rss,
		"points": len(want), "insts": ranInsts, "setup_cpu_s": setups, "setup_wall_s": setupWalls, "n": n, "seed": seed,
	}

	// Reference: the same points through direct in-process sim.Run calls.
	replay := b.tr.begin("replay", top.id, 0)
	ref, err := b.sweepReference(tc, want, n, seed, replay.id, oc)
	replay.end()
	if err != nil {
		return nil, err
	}
	refPrint := sweepFingerprint(ref)
	for i, p := range prints {
		if p != refPrint {
			oc.fail("sweep run %d fingerprint %016x != direct sim.Run %016x", i+1, uint64(p), uint64(refPrint))
		}
	}
	oc.check("sweep results vs direct sim.Run", comparePoints(want, ref))
	oc.layer["sim.cycles_fnv"] = metric{refPrint.fold32(), "fnv32"}
	return oc, nil
}

// sweepReference re-runs every point through sim.Run with the parameters
// cmd/sweep's runner uses. Untraced runs spread the points over all CPUs;
// the traced run runs them one at a time so each call's time is its own,
// then measures the in-machine pool and the experiments runner.
func (b *bench) sweepReference(tc string, pts []point, n int, seed int64, parent int64, oc *outcome) ([]point, error) {
	benches := make([]string, 0)
	for _, p := range pts {
		if len(benches) == 0 || benches[len(benches)-1] != p.bench {
			benches = append(benches, p.bench)
		}
	}
	traces := make(map[string]*trace.MultiTrace, len(benches))
	var readTime time.Duration
	for i, name := range benches {
		sp := b.tr.begin("trace.Read", parent, int64(i+1))
		mt, err := readTrace(traceFile(tc, name, n, seed))
		readTime += sp.end()
		if err != nil {
			return nil, err
		}
		traces[name] = mt
	}
	oc.layer["trace.read_s"] = metric{readTime.Seconds(), "s"}

	out := append([]point(nil), pts...)
	times := make([]time.Duration, len(out))
	workers := b.procs
	if b.tr != nil {
		workers = 1
	}
	var runs int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := sim.DefaultParams(out[i].slices, fig12CacheKB)
				p.Sequential = true
				sp := b.tr.begin("sim.Run", parent, int64(i+1))
				res, err := sim.Run(p, traces[out[i].bench])
				times[i] = sp.end()
				mu.Lock()
				runs++
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("sim.Run %s s=%d: %w", out[i].bench, out[i].slices, err)
				}
				mu.Unlock()
				if err == nil {
					out[i].cycles, out[i].insts = res.Cycles, res.Instructions
				}
			}
		}()
	}
	for i := range out {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if b.tr == nil {
		return out, nil
	}

	// Per-layer rates from the sequential calls: single-engine points run
	// the direct loop, multi-engine points the quantum loop.
	var dInsts, qInsts uint64
	var dTime, qTime, all time.Duration
	for i, p := range out {
		all += times[i]
		if p.threads == 1 {
			dInsts += p.insts
			dTime += times[i]
		} else {
			qInsts += p.insts
			qTime += times[i]
		}
	}
	oc.layer["sim.direct_minst_per_s"] = metric{float64(dInsts) / dTime.Seconds() / 1e6, "Minst/s"}
	oc.layer["sim.quantum_minst_per_s"] = metric{float64(qInsts) / qTime.Seconds() / 1e6, "Minst/s"}

	// The multi-engine points again with the in-machine pool at nproc
	// workers; results must not change.
	var pTime time.Duration
	for i, p := range out {
		if p.threads == 1 {
			continue
		}
		sp := b.tr.begin("sim.Run.pool", parent, int64(i+1))
		par := sim.DefaultParams(p.slices, fig12CacheKB)
		par.Workers = b.procs
		res, err := sim.Run(par, traces[p.bench])
		pTime += sp.end()
		runs++
		if err != nil {
			return nil, fmt.Errorf("pooled sim.Run %s s=%d: %w", p.bench, p.slices, err)
		}
		if res.Cycles != p.cycles || res.Instructions != p.insts {
			oc.fail("pooled sim.Run %s s=%d: cycles=%d, sequential %d", p.bench, p.slices, res.Cycles, p.cycles)
		}
	}
	oc.layer["sim.pool_minst_per_s"] = metric{float64(qInsts) / pTime.Seconds() / 1e6, "Minst/s"}

	// The experiments runner over the same grid: its wall time against the
	// summed per-point simulation time says how well its pool keeps every
	// slot busy.
	r := experiments.NewRunner()
	r.TraceLen, r.Seed, r.TraceCacheDir = n, seed, tc
	sp := b.tr.begin("experiments.SuiteGrids", parent, 0)
	suite, err := r.SuiteGrids(benches, experiments.StdSlices, []int{fig12CacheKB})
	wall := sp.end()
	if err != nil {
		return nil, err
	}
	runs += r.SimRuns()
	for _, p := range out {
		ipc := float64(p.insts) / float64(p.cycles)
		if got := suite[p.bench][econ.Config{Slices: p.slices, CacheKB: fig12CacheKB}]; got != ipc {
			oc.fail("experiments runner %s s=%d: IPC %v, direct sim.Run %v", p.bench, p.slices, got, ipc)
		}
	}
	oc.layer["experiments.pool_efficiency"] = metric{all.Seconds() / (wall.Seconds() * float64(b.procs)), "ratio"}
	oc.layer["sim.runs"] = metric{float64(runs), "count"}
	return out, nil
}

func readTrace(path string) (*trace.MultiTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	mt, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return mt, nil
}
