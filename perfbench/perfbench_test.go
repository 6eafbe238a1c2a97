package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sharing/internal/alloc"
	"sharing/internal/econ"
)

var testPhases = map[string]int{"gcc": 10, "mcf": 1}

func testSchedule(seed int64) []request {
	s, _ := openSchedule(seed, 2*time.Second, 500, 100, 2, 6, 30, []string{"gcc", "mcf"}, testPhases)
	return s
}

func TestScheduleFollowsSeed(t *testing.T) {
	a, b, c := testSchedule(7), testSchedule(7), testSchedule(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different open-loop schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same open-loop schedule")
	}
	if !reflect.DeepEqual(priceVectors(7, 5), priceVectors(7, 5)) {
		t.Fatal("same seed gave different price vectors")
	}
	if reflect.DeepEqual(priceVectors(7, 5), priceVectors(8, 5)) {
		t.Fatal("different seeds gave the same price vectors")
	}
	pv := priceVectors(7, 5)
	if len(pv) != 8 || !reflect.DeepEqual(pv[:3], econ.Markets()) {
		t.Fatalf("price vectors must start with the 3 paper markets: %v", pv)
	}
	closed := func(seed int64) []request {
		_, model := openSchedule(seed, time.Second, 500, 100, 2, 6, 30, []string{"gcc", "mcf"}, testPhases)
		g := closedGens(seed, 2, 6, 0.2, 30, []string{"gcc", "mcf"}, testPhases, model)
		var out []request
		for i := 0; i < 200; i++ {
			out = append(out, g[i%2].next())
		}
		return out
	}
	if !reflect.DeepEqual(closed(7), closed(7)) {
		t.Fatal("same seed gave different closed-loop sequences")
	}
	if reflect.DeepEqual(closed(7), closed(8)) {
		t.Fatal("different seeds gave the same closed-loop sequence")
	}
}

// Every op the generator emits is valid for the VM's state, phases stay
// within the profile's phase count, and each VM's ops stay on one lane.
func TestScheduleOpsAreValidAndSerialPerVM(t *testing.T) {
	sched := testSchedule(3)
	resident := map[int]string{}
	lane := map[int]int{}
	var last time.Duration
	ops := 0
	for _, r := range sched {
		if r.due < last {
			t.Fatal("schedule is not in due order")
		}
		last = r.due
		if r.kind == kindBid {
			if r.lane != 1 {
				t.Fatalf("bid on lane %d, want the bid lane 1", r.lane)
			}
			continue
		}
		ops++
		if l, ok := lane[r.vm]; ok && l != r.lane {
			t.Fatalf("vm %d ops on lanes %d and %d", r.vm, l, r.lane)
		}
		lane[r.vm] = r.lane
		bench, in := resident[r.vm]
		switch r.kind {
		case kindArrive:
			if in {
				t.Fatalf("arrive for resident vm %d", r.vm)
			}
			resident[r.vm] = r.bench
		case kindPhase:
			if !in || r.phase < 0 || r.phase >= testPhases[bench] {
				t.Fatalf("phase %d for vm %d (%q, resident %v)", r.phase, r.vm, bench, in)
			}
		case kindDepart:
			if !in {
				t.Fatalf("depart for absent vm %d", r.vm)
			}
			delete(resident, r.vm)
		}
	}
	if ops < 100 || ops == len(sched) {
		t.Fatalf("%d ops among %d requests: the mix is off", ops, len(sched))
	}
}

func TestPercentileAndLateness(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("empty samples must give NaN")
	}
	if got := beyond(xs, 80); got != 2 {
		t.Errorf("beyond p80 = %d, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	due := time.Unix(100, 0)
	if got := lateness(due, due.Add(1500*time.Microsecond)); got != 1500*time.Microsecond {
		t.Errorf("lateness = %v, want 1.5ms", got)
	}
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
	// A request due at 0 that completes at 3ms, sent 1ms late, has a 3ms
	// latency: the generator's lateness counts against the system.
	s := sample{due: due, sent: due.Add(time.Millisecond), done: due.Add(3 * time.Millisecond), status: 200}
	if s.latency() != 3*time.Millisecond {
		t.Errorf("latency = %v, want 3ms from the due time", s.latency())
	}
	failed := sample{req: request{kind: kindBid}, due: due, sent: due, done: due.Add(time.Millisecond), status: 500}
	if got := latencies([]sample{failed}, true, 6*time.Second); got[0] != 6000 {
		t.Errorf("failed request latency = %v ms, want the 6000 ms phase length", got[0])
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]SpanSummary{}
	for _, s := range summarize(spans) {
		got[s.Name] = s
	}
	// root: 100ns minus the union [10,50) and [90,100) = 50ns.
	if r := got["root"]; r.Count != 1 || r.SelfMs != 50e-6 {
		t.Errorf("root summary %+v, want self 50ns", r)
	}
	if c := got["child"]; c.Count != 3 || c.TotalMs != 80e-6 {
		t.Errorf("child summary %+v", c)
	}
}

func testPoints() []point {
	return []point{
		{bench: "dedup", slices: 1, threads: 4, cycles: 1000, insts: 4000},
		{bench: "dedup", slices: 2, threads: 4, cycles: 700, insts: 4000},
		{bench: "mcf", slices: 1, threads: 1, cycles: 900, insts: 1000},
	}
}

func TestSweepCheckRejectsFlippedCycle(t *testing.T) {
	want := testPoints()
	got := testPoints()
	if sweepFingerprint(got) != sweepFingerprint(want) || comparePoints(got, want) != nil {
		t.Fatal("identical points rejected")
	}
	got[1].cycles ^= 1
	if sweepFingerprint(got) == sweepFingerprint(want) {
		t.Error("fingerprint missed a flipped cycle count")
	}
	if comparePoints(got, want) == nil {
		t.Error("comparePoints missed a flipped cycle count")
	}
	got = testPoints()
	got[2].insts++
	if sweepFingerprint(got) == sweepFingerprint(want) || comparePoints(got, want) == nil {
		t.Error("check missed an altered instruction count")
	}
	if comparePoints(got[:2], want) == nil {
		t.Error("check missed a missing point")
	}
}

func TestTraceCacheCheckRejectsRewrite(t *testing.T) {
	before := map[string]fileID{"a.strc": {size: 10, ino: 1, mtime: time.Unix(5, 0)}}
	same := map[string]fileID{"a.strc": {size: 10, ino: 1, mtime: time.Unix(5, 0)}}
	if err := compareSnapshots(before, same); err != nil {
		t.Fatal(err)
	}
	rewritten := map[string]fileID{"a.strc": {size: 10, ino: 2, mtime: time.Unix(6, 0)}}
	if compareSnapshots(before, rewritten) == nil {
		t.Error("missed a regenerated trace")
	}
	extra := map[string]fileID{"a.strc": before["a.strc"], "a.strc.tmp1": {}}
	if compareSnapshots(before, extra) == nil {
		t.Error("missed a new file")
	}
	if compareSnapshots(before, map[string]fileID{}) == nil {
		t.Error("missed a vanished trace")
	}
}

func testServeRun() *serveRun {
	grid := econ.Grid{{Slices: 1, CacheKB: 0}: 0.5, {Slices: 2, CacheKB: 64}: 0.875}
	return &serveRun{
		cases:    bidCases([]string{"mcf"}, econ.Markets()),
		grids:    gridProber{{bench: "mcf", phase: alloc.WholeProgram}: grid},
		bodyHash: map[int]fnv64{},
	}
}

func TestBidCheckRejectsBadReplies(t *testing.T) {
	sr := testServeRun()
	good := `{"Config":{"Slices":2,"CacheKB":64},"Perf":0.875,"Utility":1,"Cost":2.5,"VCores":40,"Probes":3,"Warm":false,"FellBack":false}`
	if err := sr.checkBid(0, []byte(good)); err != nil {
		t.Fatal(err)
	}
	if err := sr.checkBid(0, []byte(good)); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	changed := strings.Replace(good, `"Utility":1`, `"Utility":1.5`, 1)
	if sr.checkBid(0, []byte(changed)) == nil {
		t.Error("missed a reply that changed for the same case")
	}
	offLattice := strings.Replace(good, `"CacheKB":64`, `"CacheKB":96`, 1)
	if sr.checkBid(1, []byte(offLattice)) == nil {
		t.Error("missed a config outside the lattice")
	}
	wrongPerf := strings.Replace(good, `"Perf":0.875`, `"Perf":0.876`, 1)
	if sr.checkBid(2, []byte(wrongPerf)) == nil {
		t.Error("missed a perf that is not the set-up measurement")
	}
	if sr.checkBid(3, []byte(`{"Config":`)) == nil {
		t.Error("missed a malformed reply")
	}
	if sr.check(sample{req: request{kind: kindBid}, status: 422, body: []byte(`{"error":"x"}`)}) == nil {
		t.Error("missed a non-2xx reply")
	}
}

func TestOpLogCheck(t *testing.T) {
	sr := testServeRun()
	if sr.checkOp(request{kind: kindArrive, vm: 1, bench: "mcf", k: 2}, []byte(`{"seq":2,"epoch":2}`)) != nil ||
		sr.checkOp(request{kind: kindDepart, vm: 3}, []byte(`{"seq":1,"epoch":1}`)) != nil {
		t.Fatal("valid receipts rejected")
	}
	if sr.checkOp(request{kind: kindPhase, vm: 1}, []byte(`{"seq":0}`)) == nil {
		t.Error("missed a receipt without a seq")
	}
	log, err := committedLog(sr.ops)
	if err != nil {
		t.Fatal(err)
	}
	if log[0].Kind != "depart" || log[1].Bench != "mcf" || log[1].K != 2 || log[1].Budget != econ.DefaultBudget {
		t.Errorf("log not ordered by seq or fields lost: %+v", log)
	}
	if _, err := committedLog([]alloc.OpRecord{{Seq: 1}, {Seq: 3}}); err == nil {
		t.Error("missed a gap in the committed seqs")
	}
}

func TestMarketCheckRejectsAlteredReply(t *testing.T) {
	want := &econ.ClearingResult{
		Prices:       econ.Market{Name: "clearing", SliceCost: 1.25, BankCost: 0.5},
		TotalUtility: 12.5,
		Allocations: []econ.Allocation{
			{Customer: "vm000", Config: econ.Config{Slices: 2, CacheKB: 128}, VCores: 10, Utility: 5},
			{Customer: "vm001", Config: econ.Config{Slices: 4, CacheKB: 0}, VCores: 7.5, Utility: 7.5},
		},
	}
	reply := func() marketReply {
		r := marketReply{Prices: want.Prices, TotalU: want.TotalUtility}
		for _, a := range want.Allocations {
			r.VMs = append(r.VMs, alloc.VMStat{Name: a.Customer, Config: a.Config, VCores: a.VCores, Utility: a.Utility})
		}
		return r
	}
	if err := checkMarket(reply(), want); err != nil {
		t.Fatal(err)
	}
	for name, alter := range map[string]func(*marketReply){
		"price":   func(r *marketReply) { r.Prices.BankCost = 0.75 },
		"total":   func(r *marketReply) { r.TotalU += 1e-9 },
		"config":  func(r *marketReply) { r.VMs[1].Config.CacheKB = 64 },
		"vcores":  func(r *marketReply) { r.VMs[0].VCores = 9 },
		"order":   func(r *marketReply) { r.VMs[0], r.VMs[1] = r.VMs[1], r.VMs[0] },
		"missing": func(r *marketReply) { r.VMs = r.VMs[:1] },
	} {
		r := reply()
		alter(&r)
		if checkMarket(r, want) == nil {
			t.Errorf("missed an altered market reply (%s)", name)
		}
	}
	if checkMarket(reply(), nil) == nil {
		t.Error("missed residents served after the replay emptied the market")
	}
}

func TestFleetOutputParse(t *testing.T) {
	out := "fleet: 10 machines, 2 shards, 3 epochs, 2.0 sim-seconds\n" +
		"events: 42 (placed 20, rejected 1, departed 21), 5 machines used\n" +
		"wall: 0.010s (4200 events/s)\n" +
		"machines=10 epochs=3 events=42\nmachinehash=00ff\n"
	fo, err := parseFleetOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if fo.events != 42 || fo.fingerprint != "machines=10 epochs=3 events=42\nmachinehash=00ff\n" {
		t.Errorf("parsed %+v", fo)
	}
	perturbed, _ := parseFleetOutput(strings.Replace(out, "machinehash=00ff", "machinehash=00fe", 1))
	if perturbed.fingerprint == fo.fingerprint {
		t.Error("a perturbed fleet fingerprint compared equal")
	}
	if _, err := parseFleetOutput("wall: 1s\n"); err == nil {
		t.Error("accepted output without a fingerprint")
	}
}

// TestFleetCacheCheckCatchesSimulation runs cmd/fleet over a results cache
// that lacks one of its benchmarks, so the run has to simulate, and the
// fleet workload's check must say so. A second run over the cache the
// first one completed simulates nothing and must pass.
func TestFleetCacheCheckCatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/fleet")
	}
	dir := t.TempDir()
	prog := filepath.Join(dir, "fleet")
	if out, err := exec.Command("go", "build", "-o", prog, "sharing/cmd/fleet").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/fleet: %v\n%s", err, out)
	}
	b := &bench{o: options{seed: 3, fleetN: 500, fleetMachines: 50, fleetEvents: 2000,
		fleetRate: 500, fleetLife: 10, fleetEpoch: 1, fleetBenches: "hmmer,mcf"}, work: dir}
	resPath := filepath.Join(dir, "results", "perf.json")
	if _, err := b.fillFleetCache(resPath, []string{"hmmer"}, 0); err != nil {
		t.Fatal(err)
	}
	runFleet := func() resultsState {
		t.Helper()
		before, err := readResultsState(resPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runChild(context.Background(), prog, b.fleetArgs(resPath, 2)...); err != nil {
			t.Fatal(err)
		}
		return before
	}
	if resultsUnchanged(resPath, runFleet()) == nil {
		t.Error("check passed although cmd/fleet simulated mcf's surfaces")
	}
	if err := resultsUnchanged(resPath, runFleet()); err != nil {
		t.Errorf("check failed over a full cache: %v", err)
	}
}

// TestResultsCheckRejectsJournalGrowth covers what a program that is
// still running leaves behind when it simulates: entries in the journal,
// with the results file untouched.
func TestResultsCheckRejectsJournalGrowth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.json")
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := readResultsState(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsUnchanged(path, before); err != nil {
		t.Fatalf("an untouched cache failed the check: %v", err)
	}
	if err := os.WriteFile(path+".wal", []byte("{\"key\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if resultsUnchanged(path, before) == nil {
		t.Error("missed a journal that gained an entry")
	}
}

func TestOptionsRequireEverySize(t *testing.T) {
	full := []string{"--workload", "fleet", "--setup-reps=1", "--sweep-setup-reps=1", "--sweep-n=1",
		"--serve-n=1", "--serve-benches=gcc", "--serve-bid-rate=1", "--serve-op-rate=1",
		"--serve-random-prices=1", "--serve-vms=1", "--serve-open-share=0.5",
		"--fleet-n=1", "--fleet-machines=1", "--fleet-events=1", "--fleet-rate=1",
		"--fleet-life=1", "--fleet-epoch=1", "--fleet-benches=mcf"}
	if _, err := parseOptions(full); err != nil {
		t.Fatalf("rejected a full command line: %v", err)
	}
	for i := 2; i < len(full); i++ {
		args := append(append([]string(nil), full[:i]...), full[i+1:]...)
		if _, err := parseOptions(args); err == nil {
			t.Errorf("accepted a command line without %s", full[i])
		}
	}
}

func TestResultHoldsExactlyTheManifestMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want, err := manifestMetrics("..", traced)
		if err != nil || len(want) == 0 {
			t.Fatalf("manifestMetrics(traced=%v) = %v, %v", traced, want, err)
		}
		got := map[string]metric{"extra": {1, "s"}}
		for name, unit := range want {
			got[name] = metric{1.5, unit}
		}
		picked, err := pickMetrics(got, want)
		if err != nil || len(picked) != len(want) {
			t.Fatalf("pickMetrics on every metric plus one extra = %v, %v", picked, err)
		}
		for name, unit := range want {
			missing := map[string]metric{}
			wrongUnit := map[string]metric{}
			for k, v := range got {
				if k != name {
					missing[k] = v
				}
				wrongUnit[k] = v
			}
			wrongUnit[name] = metric{1.5, unit + "x"}
			if _, err := pickMetrics(missing, want); err == nil {
				t.Errorf("accepted a result without %s", name)
			}
			if _, err := pickMetrics(wrongUnit, want); err == nil {
				t.Errorf("accepted %s in the wrong unit", name)
			}
		}
	}
}
