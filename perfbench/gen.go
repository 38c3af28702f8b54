package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/decide"
	"repro/internal/enumerate"
	"repro/internal/lcl"
	"repro/internal/memo"
	"repro/internal/problems"
	"repro/internal/rooted"
	"repro/internal/service"
	"repro/internal/store"
)

// The request pools of serve-batch.
const (
	poolSealed = iota // inside the sealed spaces: one fingerprint and one probe
	poolWarm          // battery problems the set-up warmed into the memo cache
	poolFirst         // k=4 cycle orbit representatives, each sent at most once
	numPools
)

var poolNames = [numPools]string{"sealed", "warm", "first-seen"}

// The serve mix: the shares of sealed and warm batch items; the rest
// (0.5%) are first-seen. A 40 s run on 2 cores draws about 3,000 to
// 5,000 first-seen items, a tenth of the 48,400 k=4 representatives; a run
// that draws more than there are is reported incorrect (see runServe),
// as its later first-seen items would repeat as memo hits.
var mix = [2]float64{0.695, 0.30}

// Serve pool sizes and batch shape.
const (
	sealedCycles = 512 // k<=3 cycle masks
	sealedGrid   = 256 // grid dims=1 masks
	sealedRooted = 256 // rooted census specs
	batchItems   = 64
	batchDupFrac = 0.25 // items that repeat an earlier item of their batch
)

// wireReq is the JSON body of one classify request.
type wireReq struct {
	Mode      string                `json:"mode"`
	Problem   *lcl.Problem          `json:"problem,omitempty"`
	Rooted    *decide.RootedProblem `json:"rooted,omitempty"`
	MaxLevels int                   `json:"max_levels,omitempty"`
	Dims      int                   `json:"dims,omitempty"`
}

// request returns the engine request the body decodes to.
func (w *wireReq) request() decide.Request {
	return decide.Request{Mode: w.Mode, Problem: w.Problem, Rooted: w.Rooted, MaxLevels: w.MaxLevels, Dims: w.Dims}
}

// verdict is what the benchmark checks in a response: the lattice class
// and the decider detail as normalized JSON (see newVerdict).
type verdict struct {
	Class  string
	Detail string
}

// pooled is one pool request with its expected verdict.
type pooled struct {
	Mode string
	Body []byte
	Want verdict
}

// entry names one request of a stream: a pool and an index into it
// (for first-seen requests, the rank in the seeded representative
// order).
type entry struct {
	Pool int32
	Idx  int32
}

// expect computes a request's verdict by calling its decider directly,
// outside the server.
func expect(reg *decide.Registry, req decide.Request) (verdict, error) {
	d, ok := reg.Get(req.Mode)
	if !ok {
		return verdict{}, fmt.Errorf("unknown mode %q", req.Mode)
	}
	if err := d.Normalize(&req); err != nil {
		return verdict{}, err
	}
	payload, err := d.Compute(context.Background(), &req)
	if err != nil {
		return verdict{}, err
	}
	return wrapVerdict(d, payload)
}

// wrapVerdict projects a payload the way the server's response does.
func wrapVerdict(d decide.Decider, payload any) (verdict, error) {
	v, err := d.WrapPayload(payload)
	if err != nil {
		return verdict{}, err
	}
	detail, err := json.Marshal(v.Detail)
	if err != nil {
		return verdict{}, err
	}
	return newVerdict(v.Class.String(), detail)
}

// labelDependent are detail fields that name labels of the problem the
// verdict was computed for. A verdict served from the sealed table or
// the memo cache was computed for an isomorphic problem, so these
// fields may name a relabeling of the request's own labels; they are
// left out of the comparison.
var labelDependent = []string{"witness", "bad_input"}

// newVerdict builds the comparable form of a class and a detail.
func newVerdict(class string, detail []byte) (verdict, error) {
	if len(detail) == 0 || string(detail) == "null" {
		return verdict{Class: class}, nil
	}
	var m map[string]any
	if err := json.Unmarshal(detail, &m); err != nil {
		return verdict{}, err
	}
	for _, k := range labelDependent {
		delete(m, k)
	}
	norm, err := json.Marshal(m)
	if err != nil {
		return verdict{}, err
	}
	return verdict{Class: class, Detail: string(norm)}, nil
}

// memoKey returns the serving memo key of a request and whether its
// fingerprint is exact (only exact keys are cached or sealed).
func memoKey(reg *decide.Registry, req decide.Request) (uint64, bool, error) {
	d, ok := reg.Get(req.Mode)
	if !ok {
		return 0, false, fmt.Errorf("unknown mode %q", req.Mode)
	}
	if err := d.Normalize(&req); err != nil {
		return 0, false, err
	}
	fp, exact, err := d.Fingerprint(&req)
	if err != nil {
		return 0, false, err
	}
	return memo.Key(d.MemoDomain(&req), fp), exact, nil
}

func mustBody(w *wireReq) []byte {
	b, err := json.Marshal(w)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal request: %v", err))
	}
	return b
}

// servePools holds every request serve-batch can send.
type servePools struct {
	reg    *decide.Registry
	sealed []pooled
	warm   []pooled
	// reps are the k=4 cycle orbit representatives in seeded order;
	// first-seen request i classifies reps[i].
	reps [][2]uint
}

// distinctPairs draws n distinct raw (node, edge) mask pairs of the
// k-label cycle space.
func distinctPairs(k, n int, rng *rand.Rand) [][2]uint {
	space := int(enumerate.CycleMaskSpace(k))
	seen := map[[2]uint]bool{}
	var out [][2]uint
	for len(out) < n && len(seen) < space*space {
		p := [2]uint{uint(rng.Intn(space)), uint(rng.Intn(space))}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// rootedSpec renders a rooted census problem as a request spec. Leaf
// and root lists are explicit, so the masks must be non-empty (an
// empty list means "all labels").
func rootedSpec(p *rooted.Problem) *decide.RootedProblem {
	spec := &decide.RootedProblem{Delta: p.Delta, Labels: p.Labels}
	for _, c := range p.Configs {
		rc := decide.RootedConfig{Parent: p.Labels[c.Parent]}
		for _, ch := range c.Children {
			rc.Children = append(rc.Children, p.Labels[ch])
		}
		spec.Configs = append(spec.Configs, rc)
	}
	for a, ok := range p.LeafOK {
		if ok {
			spec.Leaf = append(spec.Leaf, p.Labels[a])
		}
	}
	for a, ok := range p.RootOK {
		if ok {
			spec.Root = append(spec.Root, p.Labels[a])
		}
	}
	return spec
}

// warmBattery lists the battery requests of the warm pool: every
// problem of problems.All(2) and All(3) in each mode that accepts it,
// trees at one level. Trees 4-coloring and 5-edge-coloring at degree 3
// are left out: each takes seconds cold, which is trees-cold's subject,
// and would make the serve set-up mostly round elimination.
func warmBattery() []*wireReq {
	var out []*wireReq
	for _, deg := range []int{2, 3} {
		for _, p := range problems.All(deg) {
			out = append(out,
				&wireReq{Mode: service.ModeCycles, Problem: p},
				&wireReq{Mode: service.ModePathsInputs, Problem: p},
				&wireReq{Mode: service.ModeGrid, Problem: p, Dims: 2},
			)
			if deg == 3 && (p.Name == "4-coloring" || p.Name == "5-edge-coloring") {
				continue
			}
			out = append(out, &wireReq{Mode: service.ModeTrees, Problem: p, MaxLevels: 1})
		}
	}
	return out
}

// newServePools builds the pools from seed. sealed is the artifact the
// server loads: sealed-pool requests must hit it, warm-pool requests
// must miss it (they are served from the memo cache).
func newServePools(seed int64, sealed *store.SealedTable) (*servePools, error) {
	rng := rand.New(rand.NewSource(seed))
	sp := &servePools{reg: service.DefaultRegistry()}

	var cands []*wireReq
	for _, pr := range distinctPairs(2, sealedCycles/16, rng) {
		cands = append(cands, &wireReq{Mode: service.ModeCycles, Problem: enumerate.FromMasks(2, pr[0], pr[1])})
	}
	for _, pr := range distinctPairs(3, sealedCycles-sealedCycles/16, rng) {
		cands = append(cands, &wireReq{Mode: service.ModeCycles, Problem: enumerate.FromMasks(3, pr[0], pr[1])})
	}
	for _, pr := range distinctPairs(3, sealedGrid, rng) {
		cands = append(cands, &wireReq{Mode: service.ModeGrid, Problem: enumerate.FromMasks(3, pr[0], pr[1]), Dims: 1})
	}
	seenRooted := map[[4]uint64]bool{}
	for len(seenRooted) < sealedRooted {
		delta := 2
		if rng.Intn(4) == 0 {
			delta = 1
		}
		cs := uint64(1) << uint(len(rooted.AllConfigs(delta, 2)))
		key := [4]uint64{uint64(delta), uint64(rng.Int63n(int64(cs))), uint64(1 + rng.Intn(3)), uint64(1 + rng.Intn(3))}
		if seenRooted[key] {
			continue
		}
		seenRooted[key] = true
		p := rooted.CensusProblem(delta, 2, key[1], uint(key[2]), uint(key[3]))
		cands = append(cands, &wireReq{Mode: service.ModeRooted, Rooted: rootedSpec(p)})
	}
	for _, w := range cands {
		key, exact, err := memoKey(sp.reg, w.request())
		if err != nil {
			return nil, fmt.Errorf("sealed pool: %v", err)
		}
		if _, hit := sealed.Get(key); !hit || !exact {
			return nil, fmt.Errorf("sealed pool: %s request %s misses the sealed table", w.Mode, mustBody(w))
		}
		want, err := expect(sp.reg, w.request())
		if err != nil {
			return nil, fmt.Errorf("sealed pool: %v", err)
		}
		sp.sealed = append(sp.sealed, pooled{Mode: w.Mode, Body: mustBody(w), Want: want})
	}

	seenWarm := map[string]bool{}
	for _, w := range warmBattery() {
		body := mustBody(w)
		key, exact, err := memoKey(sp.reg, w.request())
		if err != nil || !exact || seenWarm[string(body)] {
			continue
		}
		if _, hit := sealed.Get(key); hit {
			continue // a sealed hit, not a memo hit
		}
		want, err := expect(sp.reg, w.request())
		if err != nil {
			continue // the mode does not accept this problem
		}
		seenWarm[string(body)] = true
		sp.warm = append(sp.warm, pooled{Mode: w.Mode, Body: body, Want: want})
	}

	enumerate.CycleRepRange(4, 0, enumerate.CycleMaskSpace(4), func(n2, e uint, _ int) error {
		sp.reps = append(sp.reps, [2]uint{n2, e})
		return nil
	})
	rng.Shuffle(len(sp.reps), func(i, j int) { sp.reps[i], sp.reps[j] = sp.reps[j], sp.reps[i] })
	return sp, nil
}

// firstReq returns first-seen request i. Past the last representative
// it wraps around; runServe reports such a run incorrect.
func (sp *servePools) firstReq(i int) *wireReq {
	r := sp.reps[i%len(sp.reps)]
	return &wireReq{Mode: service.ModeCycles, Problem: enumerate.FromMasks(4, r[0], r[1])}
}

// body returns the request body of e.
func (sp *servePools) body(e entry) []byte {
	switch e.Pool {
	case poolSealed:
		return sp.sealed[e.Idx].Body
	case poolWarm:
		return sp.warm[e.Idx].Body
	default:
		return mustBody(sp.firstReq(int(e.Idx)))
	}
}

// want returns the expected verdict of e; first-seen verdicts are
// computed on demand.
func (sp *servePools) want(e entry) (verdict, error) {
	switch e.Pool {
	case poolSealed:
		return sp.sealed[e.Idx].Want, nil
	case poolWarm:
		return sp.warm[e.Idx].Want, nil
	default:
		return expect(sp.reg, sp.firstReq(int(e.Idx)).request())
	}
}

// stream is the seeded request sequence of serve-batch. Each call to
// next hands out the following batch of the one deterministic sequence.
type stream struct {
	rng    *rand.Rand
	sp     *servePools
	seq    int
	nFirst int
}

func newStream(sp *servePools, seed int64) *stream {
	// The stream's generator is independent of the pools' draws.
	return &stream{rng: rand.New(rand.NewSource(seed ^ 0x5eed5eed)), sp: sp}
}

func (s *stream) draw() entry {
	u := s.rng.Float64()
	switch {
	case u < mix[0]:
		return entry{poolSealed, int32(s.rng.Intn(len(s.sp.sealed)))}
	case u < mix[0]+mix[1]:
		return entry{poolWarm, int32(s.rng.Intn(len(s.sp.warm)))}
	default:
		e := entry{poolFirst, int32(s.nFirst)}
		s.nFirst++
		return e
	}
}

// next returns the sequence number and items of the next batch.
func (s *stream) next() (int, []entry) {
	seq := s.seq
	s.seq++
	es := make([]entry, batchItems)
	for i := range es {
		if i > 0 && s.rng.Float64() < batchDupFrac {
			es[i] = es[s.rng.Intn(i)]
			continue
		}
		es[i] = s.draw()
	}
	return seq, es
}

// body renders the HTTP body of a batch.
func (s *stream) body(es []entry) []byte {
	buf := []byte(`{"requests":[`)
	for i, e := range es {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, s.sp.body(e)...)
	}
	return append(buf, "]}"...)
}
