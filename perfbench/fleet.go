package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sharing/internal/econ"
	"sharing/internal/experiments"
	"sharing/internal/fleet"
	"sharing/internal/market"
)

// The fleet workload: cmd/fleet with one shard per CPU and adaptive prices
// over simulator-measured surfaces the set-up put in its results cache. The
// measured phase prices, places and applies; it must simulate nothing.

// fleetOutput is what one cmd/fleet -fingerprint run printed.
type fleetOutput struct {
	events      int
	fingerprint string
}

// parseFleetOutput reads the event count from the summary and the
// fingerprint block that ends the output.
func parseFleetOutput(out string) (fleetOutput, error) {
	var fo fleetOutput
	i := strings.Index(out, "\nevents: ")
	if i < 0 {
		return fo, fmt.Errorf("no events line in fleet output")
	}
	if _, err := fmt.Sscanf(out[i+1:], "events: %d", &fo.events); err != nil {
		return fo, fmt.Errorf("events line: %w", err)
	}
	j := strings.Index(out, "\nmachines=")
	if j < 0 {
		return fo, fmt.Errorf("no fingerprint in fleet output")
	}
	fo.fingerprint = out[j+1:]
	return fo, nil
}

// fleetParams are the parameters cmd/fleet builds from fleetArgs: the
// same options feed both, so the in-process reference cannot drift from
// the program.
func (b *bench) fleetParams(shards int) fleet.Params {
	o := b.o
	return fleet.Params{
		Machines: o.fleetMachines, Shards: shards, Events: o.fleetEvents,
		ArrivalsPerSec: o.fleetRate, MeanLifetime: o.fleetLife, Epoch: o.fleetEpoch,
		Seed: uint64(o.seed), Benches: strings.Split(o.fleetBenches, ","),
		AdaptivePrices: true,
	}
}

// fleetArgs is the cmd/fleet command line for the fleetParams at the
// given shard count over the results cache at resPath.
func (b *bench) fleetArgs(resPath string, shards int) []string {
	o := b.o
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{"-machines", strconv.Itoa(o.fleetMachines), "-events", strconv.Itoa(o.fleetEvents),
		"-rate", f(o.fleetRate), "-life", f(o.fleetLife), "-epoch", f(o.fleetEpoch),
		"-shards", strconv.Itoa(shards), "-adaptive", "-seed", strconv.FormatInt(o.seed, 10),
		"-bench", o.fleetBenches, "-n", strconv.Itoa(o.fleetN), "-results", resPath, "-q", "-fingerprint"}
}

// fillFleetCache measures the full lattice of every benchmark into a new
// results cache at resPath, at the trace seed cmd/fleet simulates with,
// and returns the surfaces.
func (b *bench) fillFleetCache(resPath string, benches []string, parent int64) (gridProber, error) {
	if err := os.MkdirAll(filepath.Dir(resPath), 0o755); err != nil {
		return nil, err
	}
	r := experiments.NewRunner()
	r.TraceLen, r.ResultsPath = b.o.fleetN, resPath
	if err := r.Load(); err != nil {
		return nil, err
	}
	grids := gridProber{}
	for _, name := range benches {
		gs := b.tr.begin("experiments.Grid", parent, 0)
		g, err := r.Grid(name, experiments.StdSlices, experiments.StdCaches)
		gs.end()
		if err != nil {
			return nil, err
		}
		grids[surface{name, -1}] = g
	}
	return grids, r.Save()
}

func (b *bench) runFleet(ctx context.Context) (*outcome, error) {
	oc := newOutcome()
	o := b.o
	benches := strings.Split(o.fleetBenches, ",")
	top := b.tr.begin("fleet", 0, 0)
	defer top.end()

	// Set-up: the full lattice of every benchmark bids draw from.
	var setups, setupWalls []float64
	var resPath string
	var grids gridProber
	for rep := 0; rep < o.setupReps; rep++ {
		if resPath != "" {
			os.RemoveAll(filepath.Dir(resPath))
		}
		resPath = filepath.Join(b.work, fmt.Sprintf("fleet%d", rep), "perf.json")
		cpu0 := selfCPU()
		sp := b.tr.begin("setup", top.id, int64(rep+1))
		g, err := b.fillFleetCache(resPath, benches, sp.id)
		if err != nil {
			return nil, err
		}
		grids = g
		setupWalls = append(setupWalls, sp.end().Seconds())
		setups = append(setups, (selfCPU() - cpu0).Seconds())
	}
	oc.e2e["setup_s"] = metric{median(setups), "s"}
	// The reference runs below read the cache as the set-up left it.
	setupCache, err := os.ReadFile(resPath)
	if err != nil {
		return nil, err
	}
	before, err := readResultsState(resPath)
	if err != nil {
		return nil, err
	}

	// Measured phase: repeat the fleet run until the time is up.
	args := b.fleetArgs(resPath, b.procs)
	var rates, cpuRates, rss, walls []float64
	var first string
	deadline := b.deadline()
	for rep := 1; rep == 1 || time.Now().Before(deadline); rep++ {
		cr, err := runChild(ctx, b.prog("fleet"), args...)
		if err != nil {
			oc.attempted += int64(o.fleetEvents)
			oc.failed += int64(o.fleetEvents)
			oc.fail("fleet run %d: %v", rep, err)
			break
		}
		b.tr.record("fleet.process", top.id, int64(rep), cr.start, cr.end)
		fo, err := parseFleetOutput(string(cr.stdout))
		if err != nil {
			return nil, err
		}
		oc.attempted += int64(fo.events)
		if rep == 1 {
			first = fo.fingerprint
		} else if fo.fingerprint != first {
			oc.fail("fleet run %d fingerprint differs from run 1:\n%s\nvs\n%s", rep, fo.fingerprint, first)
		}
		oc.check(fmt.Sprintf("fleet run %d changed the results cache", rep), resultsUnchanged(resPath, before))
		walls = append(walls, cr.wall().Seconds())
		rates = append(rates, float64(fo.events)/cr.wall().Seconds())
		cpuRates = append(cpuRates, float64(fo.events)/cr.cpu.Seconds())
		rss = append(rss, float64(cr.maxRSSKB)/1024)
	}
	// The work is VM lifecycle events, per CPU-second of the fleet process
	// end to end and per wall-clock second as a per-layer number.
	oc.e2e["work_per_cpu_s"] = metric{median(cpuRates), "1/s"}
	oc.e2e["peak_rss_mb"] = metric{median(rss), "MB"}
	oc.layer["fleet.events_per_s"] = metric{median(rates), "1/s"}
	oc.detail["fleet"] = map[string]any{
		"runs": len(walls), "wall_s": walls, "events_per_s": rates, "events_per_cpu_s": cpuRates, "peak_rss_mb": rss,
		"setup_cpu_s": setups, "setup_wall_s": setupWalls, "shards": b.procs,
	}

	// Reference: the same fleet in-process on one shard.
	replay := b.tr.begin("replay", top.id, 0)
	defer replay.end()
	ref, err := b.inProcessFleet(setupCache, 1, replay.id, "fleet.Run.1shard")
	if err != nil {
		oc.fail("1-shard in-process reference: %v", err)
	} else if got := ref.rep.Fingerprint(); got != first {
		oc.fail("cmd/fleet fingerprint differs from a 1-shard in-process run:\n%s\nvs\n%s", first, got)
	}
	if b.tr == nil || len(oc.problems) > 0 {
		return oc, nil
	}

	// Layers: the sharded run in-process, then the pricing search alone.
	sharded, err := b.inProcessFleet(setupCache, b.procs, replay.id, "fleet.Run")
	if err != nil {
		return nil, err
	}
	if got := sharded.rep.Fingerprint(); got != first {
		oc.fail("in-process %d-shard fingerprint differs from cmd/fleet", b.procs)
	}
	rep := sharded.rep
	oc.layer["fleet.epoch_ms"] = metric{ms(sharded.wall) / float64(rep.Epochs), "ms"}
	oc.layer["fleet.group_searches"] = metric{float64(rep.Searches), "count"}
	oc.layer["fleet.probes"] = metric{float64(rep.UniqueProbes), "count"}
	searchUs, err := b.fleetSearch(grids, benches, rep.FinalPrices, replay.id)
	if err != nil {
		return nil, err
	}
	oc.layer["market.search_us"] = metric{searchUs, "us"}
	oc.layer["fleet.pricing_share"] = metric{float64(rep.Searches) * searchUs / us(sharded.wall), "ratio"}
	return oc, nil
}

// fleetRun is one in-process fleet run.
type fleetRun struct {
	rep  *fleet.Report
	wall time.Duration
}

// inProcessFleet runs the benchmark's fleet through experiments.NewFleet
// on the given shard count, over a runner that reads a copy of the set-up's
// results cache. The runner must not simulate.
func (b *bench) inProcessFleet(setupCache []byte, shards int, parent int64, name string) (fleetRun, error) {
	cp := filepath.Join(b.work, fmt.Sprintf("fleet-ref-shards%d.json", shards))
	if err := os.WriteFile(cp, setupCache, 0o644); err != nil {
		return fleetRun{}, err
	}
	r := experiments.NewRunner()
	r.TraceLen, r.ResultsPath = b.o.fleetN, cp
	if err := r.Load(); err != nil {
		return fleetRun{}, err
	}
	f, err := experiments.NewFleet(r, b.fleetParams(shards))
	if err != nil {
		return fleetRun{}, err
	}
	sp := b.tr.begin(name, parent, 0)
	rep, err := f.Run()
	wall := sp.end()
	if err != nil {
		return fleetRun{}, err
	}
	if n := r.SimRuns(); n != 0 {
		return fleetRun{}, fmt.Errorf("in-process fleet ran %d simulations over the set-up's results cache", n)
	}
	return fleetRun{rep: rep, wall: wall}, nil
}

// fleetSearch times market.Engine.PriceBidAt on the fleet's surfaces, for
// every (bench, utility) group at the starting and the final prices, warm
// started from the group's optimum as the fleet's epochs are. It returns
// the median in microseconds.
func (b *bench) fleetSearch(grids gridProber, benches []string, final econ.Market, parent int64) (float64, error) {
	e, err := market.New(market.Params{
		Slices: experiments.StdSlices, CacheKB: experiments.StdCaches,
		ProbeBudget: len(experiments.StdSlices) * len(experiments.StdCaches),
		Supply:      econ.Supply{Slices: 64, Banks: 128},
	}, grids)
	if err != nil {
		return 0, err
	}
	var ts []float64
	for _, m := range []econ.Market{econ.Market2(), final} {
		for _, name := range benches {
			for k := 1; k <= 3; k++ {
				u := econ.Utility{K: k, Budget: econ.DefaultBudget}
				warm, err := e.PriceBidAt(name, u, m, econ.Config{}, nil)
				if err != nil {
					return 0, err
				}
				for rep := 0; rep < 50; rep++ {
					sp := b.tr.begin("market.PriceBidAt", parent, 0)
					if _, err := e.PriceBidAt(name, u, m, warm.Config, nil); err != nil {
						return 0, err
					}
					ts = append(ts, us(sp.end()))
				}
			}
		}
	}
	return median(ts), nil
}
