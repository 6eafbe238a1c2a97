package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"syscall"
	"time"

	"sharing/internal/econ"
)

// The load generator: one process, one keep-alive connection per lane, at
// most nproc lanes. Bids read the market; membership ops (arrive, phase,
// depart) write it. Every VM belongs to exactly one lane, so ops on one VM
// are sent one after another and never overlap.

type reqKind uint8

const (
	kindBid reqKind = iota
	kindArrive
	kindPhase
	kindDepart
)

func (k reqKind) String() string {
	return [...]string{"bid", "arrive", "phase", "depart"}[k]
}

// bidCase is one (bench, utility, prices) combination. Its request body is
// prebuilt, so the lanes only pay for the round trip.
type bidCase struct {
	bench  string
	k      int
	market econ.Market
	body   []byte
}

// request is one scheduled HTTP request.
type request struct {
	due   time.Duration // open loop: offset from the phase start
	lane  int
	kind  reqKind
	bcase int // bid case index
	vm    int // VM index for ops
	bench string
	k     int
	phase int
}

// vmName is the customer name of VM index i.
func vmName(i int) string { return fmt.Sprintf("vm%03d", i) }

// body renders the request's JSON body.
func (r request) body(cases []bidCase) []byte {
	var v any
	switch r.kind {
	case kindBid:
		return cases[r.bcase].body
	case kindArrive:
		v = map[string]any{"name": vmName(r.vm), "bench": r.bench, "k": r.k, "budget": econ.DefaultBudget}
	case kindPhase:
		v = map[string]any{"name": vmName(r.vm), "phase": r.phase}
	case kindDepart:
		v = map[string]any{"name": vmName(r.vm)}
	}
	b, _ := json.Marshal(v) // maps of strings and numbers always marshal
	return b
}

func (r request) path() string {
	return "/v1/" + r.kind.String()
}

// priceVectors returns the 3 paper markets followed by n seeded random
// price vectors, log-uniform over Slice prices 0.25-4 and bank prices
// 0.125-4: off-paper prices are where served bids and the exhaustive
// optimum are known to disagree, so they stay in the mix.
func priceVectors(seed int64, n int) []econ.Market {
	rng := rand.New(rand.NewSource(seed*0x5851f42d + 0x14057b7e))
	out := append([]econ.Market(nil), econ.Markets()...)
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	for i := 0; i < n; i++ {
		out = append(out, econ.Market{Name: "custom", SliceCost: logU(0.25, 4), BankCost: logU(0.125, 4)})
	}
	return out
}

// bidCases crosses benches, the three utilities and the price vectors.
func bidCases(benches []string, markets []econ.Market) []bidCase {
	var cases []bidCase
	for _, b := range benches {
		for k := 1; k <= 3; k++ {
			for i, m := range markets {
				c := bidCase{bench: b, k: k, market: m}
				spec := map[string]any{"name": m.Name} // a paper market, sent by name
				if i >= len(econ.Markets()) {
					spec = map[string]any{"sliceCost": m.SliceCost, "bankCost": m.BankCost}
				}
				c.body, _ = json.Marshal(map[string]any{"bench": b, "k": k, "budget": econ.DefaultBudget, "market": spec})
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// vmModel tracks what the generator believes each VM's state is, so every
// op it emits is valid: arrive when absent, phase or depart when resident.
type vmModel struct {
	resident []bool
	bench    []string
}

func newVMModel(n int) *vmModel {
	return &vmModel{resident: make([]bool, n), bench: make([]string, n)}
}

// nextOp draws the next op for VM vm and applies it to the model. Phases
// come from the VM's own profile's phase count.
func (m *vmModel) nextOp(rng *rand.Rand, vm int, benches []string, phases map[string]int) request {
	r := request{vm: vm}
	switch {
	case !m.resident[vm]:
		r.kind = kindArrive
		r.bench = benches[rng.Intn(len(benches))]
		r.k = 1 + rng.Intn(3)
		m.resident[vm], m.bench[vm] = true, r.bench
	case rng.Float64() < 0.6:
		r.kind = kindPhase
		r.phase = rng.Intn(phases[m.bench[vm]])
	default:
		r.kind = kindDepart
		m.resident[vm] = false
	}
	return r
}

// laneSplit divides lanes between ops and bids: with two or more lanes,
// ops get the first half (at least one) so bids never queue behind an
// epoch on the same connection.
func laneSplit(lanes int) (opLanes, bidLanes int) {
	if lanes <= 1 {
		return 1, 0
	}
	opLanes = lanes / 2
	return opLanes, lanes - opLanes
}

// openSchedule draws the open-loop phase: Poisson bids and ops at the given
// rates over dur, in due order. It also returns the VM model's state after
// the whole schedule, which the closed-loop phase continues from.
func openSchedule(seed int64, dur time.Duration, bidRate, opRate float64, lanes, vms int,
	ncases int, benches []string, phases map[string]int) ([]request, *vmModel) {
	rng := rand.New(rand.NewSource(seed*0x2545f491 + 0x4f6cdd1d))
	opLanes, bidLanes := laneSplit(lanes)
	model := newVMModel(vms)
	var out []request
	nextBid := time.Duration(rng.ExpFloat64() / bidRate * float64(time.Second))
	nextOp := time.Duration(rng.ExpFloat64() / opRate * float64(time.Second))
	nbid := 0
	for nextBid < dur || nextOp < dur {
		if nextBid <= nextOp {
			r := request{due: nextBid, kind: kindBid, bcase: rng.Intn(ncases), lane: 0}
			if bidLanes > 0 {
				r.lane = opLanes + nbid%bidLanes
			}
			nbid++
			out = append(out, r)
			nextBid += time.Duration(rng.ExpFloat64() / bidRate * float64(time.Second))
			continue
		}
		vm := rng.Intn(vms)
		r := model.nextOp(rng, vm, benches, phases)
		r.due, r.lane = nextOp, vm%opLanes
		out = append(out, r)
		nextOp += time.Duration(rng.ExpFloat64() / opRate * float64(time.Second))
	}
	return out, model
}

// closedGen emits one lane's closed-loop requests: a bid or, with
// probability opShare, an op on one of the VMs this lane owns.
type closedGen struct {
	rng     *rand.Rand
	lane    int
	own     []int
	model   *vmModel
	opShare float64
	ncases  int
	benches []string
	phases  map[string]int
}

// closedGens builds every lane's generator. Each lane owns the VMs with
// index = lane mod lanes, and continues from the open-loop model state.
func closedGens(seed int64, lanes, vms int, opShare float64, ncases int,
	benches []string, phases map[string]int, model *vmModel) []*closedGen {
	gens := make([]*closedGen, lanes)
	for l := range gens {
		g := &closedGen{rng: rand.New(rand.NewSource(seed*0x3c6ef372 + int64(l)*0x1b873593 + 1)),
			lane: l, model: model, opShare: opShare, ncases: ncases, benches: benches, phases: phases}
		for vm := l; vm < vms; vm += lanes {
			g.own = append(g.own, vm)
		}
		gens[l] = g
	}
	return gens
}

func (g *closedGen) next() request {
	if len(g.own) > 0 && g.rng.Float64() < g.opShare {
		r := g.model.nextOp(g.rng, g.own[g.rng.Intn(len(g.own))], g.benches, g.phases)
		r.lane = g.lane
		return r
	}
	return request{kind: kindBid, bcase: g.rng.Intn(g.ncases), lane: g.lane}
}

// sample is one finished request as the generator saw it.
type sample struct {
	req             request
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

// ok reports a 2xx reply.
func (s sample) ok() bool { return s.err == nil && s.status/100 == 2 }

// latency is measured from the due time, so a stall also delays every
// request queued behind it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// newLaneClient returns an HTTP client holding exactly one keep-alive
// connection.
func newLaneClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// send issues one request and reads the whole reply.
func send(ctx context.Context, c *http.Client, base string, r request, cases []bidCase) sample {
	s := sample{req: r}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path(), bytes.NewReader(r.body(cases)))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	s.sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		s.done, s.err = time.Now(), err
		return s
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done, s.status = time.Now(), resp.StatusCode
	return s
}

// runOpenLane sends one lane's share of the open-loop schedule, each
// request at its due time or, if the lane is still busy, as soon as it is
// free.
func runOpenLane(ctx context.Context, c *http.Client, base string, t0 time.Time, reqs []request, cases []bidCase, out func(sample)) {
	for _, r := range reqs {
		due := t0.Add(r.due)
		if !sleepUntil(ctx, due) {
			return
		}
		s := send(ctx, c, base, r, cases)
		s.due = due
		out(s)
	}
}

// sleepUntil blocks until t or until ctx ends, reporting which. It sleeps
// in nanosleep(2) rather than on a runtime timer: an idle Go scheduler
// wakes timers up to a millisecond late, which would swamp the sub-
// millisecond latencies the open loop measures from each due time.
func sleepUntil(ctx context.Context, t time.Time) bool {
	for {
		if ctx.Err() != nil {
			return false
		}
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		ts := syscall.NsecToTimespec(int64(min(d, 50*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the nap; the loop re-checks
	}
}

// runClosedLane sends back to back until the deadline.
func runClosedLane(ctx context.Context, c *http.Client, base string, deadline time.Time, g *closedGen, cases []bidCase, out func(sample)) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		s := send(ctx, c, base, g.next(), cases)
		s.due = s.sent
		out(s)
	}
}
