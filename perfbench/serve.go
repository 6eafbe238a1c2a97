package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/experiments"
	"sharing/internal/market"
	"sharing/internal/workload"
)

// The serve workload: a simulator-backed cmd/sharingd over a results cache
// the set-up filled, driven first open-loop at fixed rates (latency), then
// closed-loop (throughput). The measured phases must run no simulation.

// surface names one performance surface: a benchmark, or one phase of it
// (phase -1 is the whole program).
type surface struct {
	bench string
	phase int
}

// gridProber serves probes from the set-up's measured lattices and refuses
// anything else, so a replay that would need a simulation fails loudly.
type gridProber map[surface]econ.Grid

func (g gridProber) Probe(bench string, cfg econ.Config) (float64, error) {
	return g.ProbePhase(bench, alloc.WholeProgram, cfg)
}

func (g gridProber) ProbePhase(bench string, phase int, cfg econ.Config) (float64, error) {
	v, ok := g[surface{bench, phase}][cfg]
	if !ok {
		return 0, fmt.Errorf("no set-up measurement for %s phase %d at %v", bench, phase, cfg)
	}
	return v, nil
}

// allocParams are the parameters cmd/sharingd builds its allocator with
// (experiments.NewAllocator with default supply and probe budget).
func allocParams() alloc.Params {
	return alloc.Params{Slices: experiments.StdSlices, CacheKB: experiments.StdCaches, Supply: econ.Supply{Slices: 64, Banks: 128}}
}

// fillSurfaces measures the full lattice of every (bench, phase) surface
// through the experiments runner and saves them as a results cache.
func (b *bench) fillSurfaces(path string, benches []string, n int, seed int64, parent int64) (gridProber, error) {
	r := experiments.NewRunner()
	r.TraceLen, r.Seed, r.ResultsPath = n, seed, path
	if err := r.Load(); err != nil {
		return nil, err
	}
	g := gridProber{}
	for _, name := range benches {
		prof, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		for ph := alloc.WholeProgram; ph < prof.NumPhases(); ph++ {
			sp := b.tr.begin("experiments.GridPhase", parent, 0)
			grid, err := r.GridPhase(name, ph, experiments.StdSlices, experiments.StdCaches)
			sp.end()
			if err != nil {
				return nil, err
			}
			g[surface{name, ph}] = grid
		}
	}
	return g, r.Save()
}

// serveRun is everything the serve workload observed, for the checks.
type serveRun struct {
	cases    []bidCase
	grids    gridProber
	mu       sync.Mutex
	bodyHash map[int]fnv64 // first reply per bid case
	ops      []alloc.OpRecord
}

// checkBid checks one bid reply: well-formed, a lattice point of the set-up
// grid with that point's measured performance, and identical to every other
// reply to the same case.
func (sr *serveRun) checkBid(c int, body []byte) error {
	var br market.BidResult
	if err := json.Unmarshal(body, &br); err != nil {
		return fmt.Errorf("bid reply: %w", err)
	}
	bc := sr.cases[c]
	perf, ok := sr.grids[surface{bc.bench, alloc.WholeProgram}][br.Config]
	if !ok {
		return fmt.Errorf("bid %s k=%d %v: config %v is not a lattice point", bc.bench, bc.k, bc.market, br.Config)
	}
	if br.Perf != perf {
		return fmt.Errorf("bid %s k=%d %v: perf %v at %v, set-up measured %v", bc.bench, bc.k, bc.market, br.Perf, br.Config, perf)
	}
	h := newFNV().bytes(body)
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if first, seen := sr.bodyHash[c]; seen && first != h {
		return fmt.Errorf("bid %s k=%d %v: reply changed during the run: %s", bc.bench, bc.k, bc.market, strings.TrimSpace(string(body)))
	} else if !seen {
		sr.bodyHash[c] = h
	}
	return nil
}

// receipt is the part of an op reply the checks read.
type receipt struct {
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
}

// checkOp checks one op reply and records the committed op.
func (sr *serveRun) checkOp(r request, body []byte) error {
	var rc receipt
	if err := json.Unmarshal(body, &rc); err != nil {
		return fmt.Errorf("%s reply: %w", r.kind, err)
	}
	if rc.Seq == 0 || rc.Epoch == 0 {
		return fmt.Errorf("%s %s: receipt without seq or epoch: %s", r.kind, vmName(r.vm), strings.TrimSpace(string(body)))
	}
	rec := alloc.OpRecord{Seq: rc.Seq, Epoch: rc.Epoch, Kind: r.kind.String(), Name: vmName(r.vm)}
	switch r.kind {
	case kindArrive:
		rec.Bench, rec.K, rec.Budget = r.bench, r.k, econ.DefaultBudget
	case kindPhase:
		rec.Phase = r.phase
	}
	sr.mu.Lock()
	sr.ops = append(sr.ops, rec)
	sr.mu.Unlock()
	return nil
}

// check validates one reply of any kind.
func (sr *serveRun) check(s sample) error {
	if s.err != nil {
		return s.err
	}
	if s.status/100 != 2 {
		return fmt.Errorf("%s: HTTP %d: %s", s.req.kind, s.status, strings.TrimSpace(string(s.body)))
	}
	if s.req.kind == kindBid {
		return sr.checkBid(s.req.bcase, s.body)
	}
	return sr.checkOp(s.req, s.body)
}

// committedLog orders the recorded ops by receipt seq and checks that the
// seqs run 1..N without a gap: every committed op is one this generator
// sent.
func committedLog(ops []alloc.OpRecord) ([]alloc.OpRecord, error) {
	log := append([]alloc.OpRecord(nil), ops...)
	sort.Slice(log, func(i, j int) bool { return log[i].Seq < log[j].Seq })
	for i, rec := range log {
		if rec.Seq != uint64(i+1) {
			return log, fmt.Errorf("committed seq %d at position %d: receipts are not 1..%d", rec.Seq, i+1, len(log))
		}
	}
	return log, nil
}

// marketReply is GET /v1/market.
type marketReply struct {
	Epoch  uint64         `json:"epoch"`
	Prices econ.Market    `json:"prices"`
	TotalU float64        `json:"totalUtility"`
	VMs    []alloc.VMStat `json:"vms"`
}

// checkMarket compares the served market with a sequential replay's final
// clearing: same prices, total utility, and per-VM configuration, VCores and
// utility, in arrival order.
func checkMarket(got marketReply, want *econ.ClearingResult) error {
	if want == nil {
		if len(got.VMs) != 0 {
			return fmt.Errorf("served %d residents, replay ended with an empty market", len(got.VMs))
		}
		return nil
	}
	if got.Prices.SliceCost != want.Prices.SliceCost || got.Prices.BankCost != want.Prices.BankCost {
		return fmt.Errorf("prices %+v, replay %+v", got.Prices, want.Prices)
	}
	if got.TotalU != want.TotalUtility {
		return fmt.Errorf("total utility %v, replay %v", got.TotalU, want.TotalUtility)
	}
	if len(got.VMs) != len(want.Allocations) {
		return fmt.Errorf("%d residents, replay %d", len(got.VMs), len(want.Allocations))
	}
	for i, vm := range got.VMs {
		w := want.Allocations[i]
		if vm.Name != w.Customer || vm.Config != w.Config || vm.VCores != w.VCores || vm.Utility != w.Utility {
			return fmt.Errorf("resident %d: %s %v vcores=%v u=%v, replay %s %v vcores=%v u=%v",
				i, vm.Name, vm.Config, vm.VCores, vm.Utility, w.Customer, w.Config, w.VCores, w.Utility)
		}
	}
	return nil
}

// serverStats is the part of GET /v1/stats and GET /debug/vars the
// per-layer metrics read.
type serverStats struct {
	Alloc    alloc.Stats `json:"alloc"`
	Memstats struct {
		NumGC        uint32 `json:"NumGC"`
		PauseTotalNs uint64 `json:"PauseTotalNs"`
	} `json:"memstats"`
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

func fetchStats(ctx context.Context, c *http.Client, base string) (serverStats, error) {
	var st serverStats
	if err := getJSON(ctx, c, base+"/v1/stats", &st); err != nil {
		return st, err
	}
	return st, getJSON(ctx, c, base+"/debug/vars", &st)
}

// phaseReport summarizes one load phase for the report.
type phaseReport struct {
	Seconds   float64 `json:"seconds"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	LateP50Ms float64 `json:"late_p50_ms"`
	LateP99Ms float64 `json:"late_p99_ms"`
	LateMaxMs float64 `json:"late_max_ms"`
}

func summarizePhase(samples []sample, start time.Time) phaseReport {
	pr := phaseReport{Sent: len(samples)}
	var late []float64
	end := start
	for _, s := range samples {
		if s.ok() {
			pr.Succeeded++
		} else {
			pr.Failed++
		}
		late = append(late, ms(lateness(s.due, s.sent)))
		if s.done.After(end) {
			end = s.done
		}
	}
	pr.Seconds = end.Sub(start).Seconds()
	if len(late) > 0 {
		pr.LateP50Ms, pr.LateP99Ms, pr.LateMaxMs = percentile(late, 50), percentile(late, 99), percentile(late, 100)
	}
	return pr
}

// latencies returns the from-due latencies in ms of the samples of the
// given kinds. A failed request misses every latency limit: it counts as
// the whole phase length.
func latencies(samples []sample, bids bool, phaseLen time.Duration) []float64 {
	var out []float64
	for _, s := range samples {
		if (s.req.kind == kindBid) != bids {
			continue
		}
		if s.ok() {
			out = append(out, ms(s.latency()))
		} else {
			out = append(out, math.Max(ms(s.latency()), ms(phaseLen)))
		}
	}
	return out
}

// windowCount sizes latency windows so each holds about a thousand samples
// of its kind (a p99 with ten beyond it), between 1 and 10 windows.
func windowCount(n int) int { return min(max(n/1000, 1), 10) }

// windows splits samples into k equal windows of the phase by due time.
func windows(samples []sample, start time.Time, phaseLen time.Duration, k int) [][]sample {
	out := make([][]sample, k)
	for _, s := range samples {
		i := int(int64(s.due.Sub(start)) * int64(k) / int64(phaseLen))
		out[min(max(i, 0), k-1)] = append(out[min(max(i, 0), k-1)], s)
	}
	return out
}

// windowMedian is the median over windows of each window's p-th latency
// percentile, for bids or for ops.
func windowMedian(wins [][]sample, bids bool, phaseLen time.Duration, p float64) float64 {
	return median(windowPercentiles(wins, bids, phaseLen, p))
}

// windowPercentiles is each window's p-th latency percentile.
func windowPercentiles(wins [][]sample, bids bool, phaseLen time.Duration, p float64) []float64 {
	var per []float64
	for _, w := range wins {
		if lat := latencies(w, bids, phaseLen); len(lat) > 0 {
			per = append(per, percentile(lat, p))
		}
	}
	return per
}

// runLanes runs one load phase on every lane and returns the samples in
// completion order per lane, concatenated.
func runLanes(lanes []*http.Client, run func(lane int, out func(sample))) []sample {
	per := make([][]sample, len(lanes))
	var wg sync.WaitGroup
	for l := range lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			run(l, func(s sample) { per[l] = append(per[l], s) })
		}(l)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

func (b *bench) runServe(ctx context.Context) (*outcome, error) {
	oc := newOutcome()
	o := b.o
	n, seed := o.serveN, o.seed
	if seed == 0 {
		seed = experiments.DefaultSeed
	}
	benches := strings.Split(o.serveBenches, ",")
	phases := map[string]int{}
	for _, name := range benches {
		prof, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		phases[name] = prof.NumPhases()
	}
	sr := &serveRun{cases: bidCases(benches, priceVectors(seed, o.randPrices)), bodyHash: map[int]fnv64{}}
	top := b.tr.begin("serve", 0, 0)
	defer top.end()
	ctl := newLaneClient() // stats, warm-up and the final market read

	// Set-up: measure every surface the traffic can touch into a results
	// cache, start the daemon over it, and warm every bid case.
	var setups, setupWalls []float64
	var d *daemon
	var resPath string
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for rep := 0; rep < o.setupReps; rep++ {
		if d != nil {
			if _, err := d.stop(30 * time.Second); err != nil {
				d = nil
				return nil, err
			}
			d = nil
			os.RemoveAll(filepath.Dir(resPath))
		}
		resPath = filepath.Join(b.work, fmt.Sprintf("serve%d", rep), "perf.json")
		if err := os.MkdirAll(filepath.Dir(resPath), 0o755); err != nil {
			return nil, err
		}
		cpu0 := selfCPU()
		sp := b.tr.begin("setup", top.id, int64(rep+1))
		grids, err := b.fillSurfaces(resPath, benches, n, seed, sp.id)
		if err != nil {
			return nil, err
		}
		sr.grids = grids
		d, err = startDaemon(ctx, b.prog("sharingd"), "-addr", "127.0.0.1:0", "-results", resPath,
			"-n", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10), "-q")
		if err != nil {
			return nil, err
		}
		base := "http://" + d.addr
		for c := range sr.cases {
			s := send(ctx, ctl, base, request{kind: kindBid, bcase: c}, sr.cases)
			oc.check("warm-up bid", sr.check(s))
		}
		setupWalls = append(setupWalls, sp.end().Seconds())
		daemonCPU, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		setups = append(setups, (selfCPU() - cpu0 + daemonCPU).Seconds())
	}
	oc.e2e["setup_s"] = metric{median(setups), "s"}
	base := "http://" + d.addr

	before, err := fetchStats(ctx, ctl, base)
	if err != nil {
		return nil, err
	}
	cacheBefore, err := readResultsState(resPath)
	if err != nil {
		return nil, err
	}
	// The load has the nproc lane connections to itself.
	ctl.CloseIdleConnections()
	lanes := make([]*http.Client, b.procs)
	for l := range lanes {
		lanes[l] = newLaneClient()
	}

	// Open loop at fixed rates, for latency.
	openDur := time.Duration(o.openShare * float64(o.seconds) * float64(time.Second))
	sched, model := openSchedule(seed, openDur, o.bidRate, o.opRate, len(lanes), o.vms, len(sr.cases), benches, phases)
	byLane := make([][]request, len(lanes))
	for _, r := range sched {
		byLane[r.lane] = append(byLane[r.lane], r)
	}
	openSpan := b.tr.begin("load.open", top.id, 0)
	t0 := time.Now()
	open := runLanes(lanes, func(l int, out func(sample)) {
		runOpenLane(ctx, lanes[l], base, t0, byLane[l], sr.cases, out)
	})
	openSpan.end()

	// Closed loop, for throughput.
	closedSpan := b.tr.begin("load.closed", top.id, 0)
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	deadline := t1.Add(time.Duration(o.seconds)*time.Second - openDur)
	gens := closedGens(seed, len(lanes), o.vms, o.opRate/(o.bidRate+o.opRate), len(sr.cases), benches, phases, model)
	closed := runLanes(lanes, func(l int, out func(sample)) {
		runClosedLane(ctx, lanes[l], base, deadline, gens[l], sr.cases, out)
	})
	closedSpan.end()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}

	// A running daemon that simulated has appended to the journal; one that
	// has drained has also saved, which rewrites the results file.
	oc.check("results cache after the measured phase", resultsUnchanged(resPath, cacheBefore))
	after, err := fetchStats(ctx, ctl, base)
	if err != nil {
		return nil, err
	}
	var final marketReply
	if err := getJSON(ctx, ctl, base+"/v1/market", &final); err != nil {
		return nil, err
	}
	rssKB, err := d.stop(30 * time.Second)
	d = nil
	if err != nil {
		return nil, err
	}
	oc.check("results cache after the daemon drained", resultsUnchanged(resPath, cacheBefore))

	// Per-request checks, and the request accounting.
	var reqID int64
	for i, set := range [][]sample{open, closed} {
		phase := []*span{openSpan, closedSpan}[i]
		for _, s := range set {
			reqID++
			b.tr.record("http."+s.req.kind.String(), phase.id, reqID, s.sent, s.done)
			oc.attempted++
			if err := sr.check(s); err != nil {
				oc.failed++
				oc.fail("request %d: %v", reqID, err)
			}
		}
	}

	// End state: the served market equals a sequential replay of the
	// committed ops in receipt order.
	log, err := committedLog(sr.ops)
	oc.check("committed op log", err)
	want, err := alloc.ReplaySequential(allocParams(), sr.grids, log)
	if err != nil {
		oc.fail("sequential replay: %v", err)
	} else {
		oc.check("GET /v1/market vs alloc.ReplaySequential", checkMarket(final, want))
	}

	// End-to-end metrics. Latency percentiles are taken per window of the
	// open loop and reported as the median over windows, so a host stall
	// in one window moves one sample, not the result. Throughput is the
	// median over one-second windows of the closed loop.
	bidLat := latencies(open, true, openDur)
	opLat := latencies(open, false, openDur)
	bidWins := windows(open, t0, openDur, windowCount(len(bidLat)))
	opWins := windows(open, t0, openDur, windowCount(len(opLat)))
	// Latencies are per-layer numbers, without a bound: on a small shared
	// host they track the hypervisor's steal time more than the program
	// (see README.md).
	oc.layer["serve.bid_p50_ms"] = metric{windowMedian(bidWins, true, openDur, 50), "ms"}
	oc.layer["serve.op_p50_ms"] = metric{windowMedian(opWins, false, openDur, 50), "ms"}
	oc.layer["serve.bid_p99_ms"] = metric{windowMedian(bidWins, true, openDur, 99), "ms"}
	oc.layer["serve.op_p99_ms"] = metric{windowMedian(opWins, false, openDur, 99), "ms"}
	cr := summarizePhase(closed, t1)
	closedDur := deadline.Sub(t1)
	nwin := max(int(closedDur/time.Second), 1)
	var rps []float64
	closedOK := 0
	for _, w := range windows(closed, t1, closedDur, nwin) {
		ok := 0
		for _, s := range w {
			if s.ok() {
				ok++
			}
		}
		closedOK += ok
		rps = append(rps, float64(ok)/(closedDur.Seconds()/float64(nwin)))
	}
	// The work is successful closed-loop replies, per CPU-second of the
	// daemon end to end and per wall-clock second as a per-layer number.
	oc.e2e["work_per_cpu_s"] = metric{float64(closedOK) / (cpu1 - cpu0).Seconds(), "1/s"}
	oc.layer["serve.rps"] = metric{median(rps), "1/s"}
	oc.e2e["peak_rss_mb"] = metric{float64(rssKB) / 1024, "MB"}

	// Layer numbers observable from outside the daemon.
	dEpochs := float64(after.Alloc.Epochs - before.Alloc.Epochs)
	dLookups := float64(after.Alloc.ProbeLookups - before.Alloc.ProbeLookups)
	var rtts []float64
	for _, s := range open {
		if s.req.kind == kindBid && s.ok() {
			rtts = append(rtts, us(s.done.Sub(s.sent)))
		}
	}
	var late []float64
	for _, s := range open {
		late = append(late, ms(lateness(s.due, s.sent)))
	}
	oc.layer["alloc.searches_per_epoch"] = metric{float64((after.Alloc.Searches-before.Alloc.Searches)-(after.Alloc.Bids-before.Alloc.Bids)) / dEpochs, "count"}
	oc.layer["alloc.ops_per_epoch"] = metric{float64(after.Alloc.Ops-before.Alloc.Ops) / dEpochs, "count"}
	oc.layer["market.hit_rate"] = metric{(dLookups - float64(after.Alloc.CacheMisses-before.Alloc.CacheMisses)) / dLookups, "ratio"}
	oc.layer["sharingd.gc_cycles"] = metric{float64(after.Memstats.NumGC - before.Memstats.NumGC), "count"}
	oc.layer["sharingd.gc_pause_ms"] = metric{float64(after.Memstats.PauseTotalNs-before.Memstats.PauseTotalNs) / 1e6, "ms"}
	oc.layer["loadgen.late_ms"] = metric{percentile(late, 99), "ms"}
	op := summarizePhase(open, t0)
	oc.detail["serve"] = map[string]any{
		"setup_cpu_s": setups, "setup_wall_s": setupWalls, "open": op, "closed": cr, "cases": len(sr.cases),
		"open_bids": len(bidLat), "open_ops": len(opLat), "committed_ops": len(log),
		"bids_beyond_p99": beyond(bidLat, 99), "ops_beyond_p99": beyond(opLat, 99),
		"bid_windows": len(bidWins), "op_windows": len(opWins), "closed_rps_windows": rps, "closed_cpu_s": (cpu1 - cpu0).Seconds(),
		"bid_p99_by_window": windowPercentiles(bidWins, true, openDur, 99),
		"op_p99_by_window":  windowPercentiles(opWins, false, openDur, 99),
		"bid_rtt_p50_us":    percentile(rtts, 50), "residents_at_end": len(final.VMs),
		"stats_before": before.Alloc, "stats_after": after.Alloc, "lanes": len(lanes),
	}

	if b.tr != nil {
		sp := b.tr.begin("replay", top.id, 0)
		err := b.serveLayers(sr, log, percentile(rtts, 50), sp.id, oc)
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	return oc, nil
}

// serveLayers replays the workload's inputs through in-process calls: every
// bid case through Allocator.PriceBid and the exhaustive Utility.Best, and
// the committed op log through Arrive, Reconfigure and Depart.
func (b *bench) serveLayers(sr *serveRun, log []alloc.OpRecord, rttUs float64, parent int64, oc *outcome) error {
	a, err := alloc.New(allocParams(), sr.grids)
	if err != nil {
		return err
	}
	util := func(c bidCase) econ.Utility { return econ.Utility{K: c.k, Budget: econ.DefaultBudget} }
	served := make([]market.BidResult, len(sr.cases))
	for i, c := range sr.cases { // warm the surface cache
		if served[i], err = a.PriceBid(c.bench, util(c), c.market); err != nil {
			return err
		}
	}
	const reps = 30
	var bidT, bestT []float64
	suboptimal := 0
	for rep := 0; rep < reps; rep++ {
		for i, c := range sr.cases {
			sp := b.tr.begin("alloc.PriceBid", parent, int64(i+1))
			if _, err := a.PriceBid(c.bench, util(c), c.market); err != nil {
				return err
			}
			bidT = append(bidT, us(sp.end()))
			g := sr.grids[surface{c.bench, alloc.WholeProgram}]
			sp = b.tr.begin("econ.Utility.Best", parent, int64(i+1))
			_, best := util(c).Best(c.market, g)
			bestT = append(bestT, us(sp.end()))
			if rep == 0 && served[i].Utility < best {
				suboptimal++
			}
		}
	}
	oc.layer["alloc.bid_us"] = metric{median(bidT), "us"}
	oc.layer["econ.best_us"] = metric{median(bestT), "us"}
	oc.layer["alloc.suboptimal_bids"] = metric{float64(suboptimal), "count"}
	oc.layer["alloc.bid_cases"] = metric{float64(len(sr.cases)), "count"}
	oc.layer["sharingd.http_us"] = metric{rttUs - median(bidT), "us"}

	// The committed ops, one at a time, each including its reprice.
	r, err := alloc.New(allocParams(), sr.grids)
	if err != nil {
		return err
	}
	var opT []float64
	for _, rec := range log {
		sp := b.tr.begin("alloc."+rec.Kind, parent, int64(rec.Seq))
		switch rec.Kind {
		case "arrive":
			_, err = r.Arrive(rec.Name, rec.Bench, econ.Utility{K: rec.K, Budget: rec.Budget})
		case "phase":
			_, err = r.Reconfigure(rec.Name, rec.Phase)
		default:
			_, err = r.Depart(rec.Name)
		}
		opT = append(opT, us(sp.end()))
		if err != nil {
			return fmt.Errorf("in-process replay seq %d: %w", rec.Seq, err)
		}
	}
	if len(opT) > 0 {
		oc.layer["alloc.op_us"] = metric{median(opT), "us"}
	}
	return nil
}
