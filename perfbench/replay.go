package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/decide"
	"repro/internal/enumerate"
	"repro/internal/lcl"
	"repro/internal/memo"
	"repro/internal/re"
	"repro/internal/service"
	"repro/internal/store"
)

// The replay calls each layer's public functions in the order the
// server's single-request path does, with a span around every call:
//
//	decode → Normalize → fingerprint (enumerate fast path, else canon)
//	→ memo.Key → SealedTable.Get → memo.Cache.Get → Compute
//	→ memo.Cache.Put → WrapPayload → encode
//
// Spans live in the benchmark only; the program is not instrumented.

// computeSpan names the span of each decider's Compute.
var computeSpan = map[string]string{
	service.ModeCycles:      "classify.cycles",
	service.ModeTrees:       "core.classify_trees",
	service.ModePathsInputs: "classify.paths",
	service.ModeGrid:        "grid.classify",
	service.ModeRooted:      "rooted.classify",
	service.ModeSynthesize:  "enumerate.synthesize",
}

// wireIn mirrors the server's request decoding.
type wireIn struct {
	Mode      string                `json:"mode"`
	Problem   json.RawMessage       `json:"problem,omitempty"`
	Rooted    *decide.RootedProblem `json:"rooted,omitempty"`
	MaxLevels int                   `json:"max_levels,omitempty"`
	MaxRadius int                   `json:"max_radius,omitempty"`
	Dims      int                   `json:"dims,omitempty"`
}

// decodeBody decodes a request body the way the HTTP layer does: the
// envelope, then the problem through the lcl codec.
func decodeBody(body []byte) (decide.Request, error) {
	var w wireIn
	if err := json.Unmarshal(body, &w); err != nil {
		return decide.Request{}, err
	}
	req := decide.Request{Mode: w.Mode, Rooted: w.Rooted, MaxLevels: w.MaxLevels, MaxRadius: w.MaxRadius, Dims: w.Dims}
	if len(w.Problem) > 0 {
		p := &lcl.Problem{}
		if err := json.Unmarshal(w.Problem, p); err != nil {
			return req, err
		}
		req.Problem = p
	}
	return req, nil
}

// ladderCounts are the ratios the replay measures where the work
// happens.
type ladderCounts struct {
	verdicts     int
	fastTried    int
	fastAccepted int
	canonCalls   int
	canonInexact int
	sealedHits   int
	memoGets     int
	memoHits     int
	computes     int
}

// ladder is an in-process copy of the serving tiers: the same sealed
// artifact and a memo cache sized like the server's.
type ladder struct {
	reg    *decide.Registry
	sealed *store.SealedTable
	cache  *memo.Cache
	counts ladderCounts

	// Inputs seen at each layer, kept (when collect is set) for the
	// per-call cost loops.
	collect  bool
	bodies   [][]byte
	canonIn  []*lcl.Problem
	keys     []uint64
	memoKeys []uint64
	puts     []memo.Entry
	wraps    []wrapIn
	details  []any
}

type wrapIn struct {
	d       decide.Decider
	payload any
}

func newLadder(sealed *store.SealedTable, warm []memo.Entry) *ladder {
	l := &ladder{reg: service.DefaultRegistry(), sealed: sealed, cache: memo.New(0, 0)}
	l.cache.Import(warm, memo.Stats{})
	return l
}

// classify serves one request body through the ladder.
func (l *ladder) classify(tr *tracer, req int32, body []byte) (verdict, error) {
	root := tr.begin("request", -1, req)
	defer tr.end(root)
	l.counts.verdicts++
	if l.collect {
		l.bodies = append(l.bodies, body)
	}

	s := tr.begin("lcl.decode", root, req)
	r, err := decodeBody(body)
	tr.end(s)
	if err != nil {
		return verdict{}, err
	}
	d, ok := l.reg.Get(r.Mode)
	if !ok {
		return verdict{}, fmt.Errorf("unknown mode %q", r.Mode)
	}
	s = tr.begin("decide.normalize", root, req)
	err = d.Normalize(&r)
	tr.end(s)
	if err != nil {
		return verdict{}, err
	}

	var fp uint64
	exact, fast := true, false
	if r.Mode == service.ModeCycles {
		l.counts.fastTried++
		s = tr.begin("enumerate.fast_fp", root, req)
		fp, fast = enumerate.FastCycleFingerprint(r.Problem)
		tr.end(s)
		if fast {
			l.counts.fastAccepted++
		}
	}
	switch {
	case fast:
	case r.Mode == service.ModeCycles || r.Mode == service.ModeTrees || r.Mode == service.ModePathsInputs:
		l.counts.canonCalls++
		if l.collect {
			l.canonIn = append(l.canonIn, r.Problem)
		}
		s = tr.begin("canon.canonicalize", root, req)
		form, err := canon.Canonicalize(r.Problem)
		tr.end(s)
		if err != nil {
			return verdict{}, err
		}
		fp, exact = form.Fingerprint(), form.Exact
		if !exact {
			l.counts.canonInexact++
		}
	default:
		s = tr.begin("decide.fingerprint", root, req)
		fp, exact, err = d.Fingerprint(&r)
		tr.end(s)
		if err != nil {
			return verdict{}, err
		}
	}

	var payload any
	if !exact {
		// Inexact fingerprints are never cached: compute directly.
		s = tr.begin(computeSpan[r.Mode], root, req)
		payload, err = d.Compute(context.Background(), &r)
		tr.end(s)
		l.counts.computes++
	} else {
		s = tr.begin("memo.key", root, req)
		key := memo.Key(d.MemoDomain(&r), fp)
		tr.end(s)
		if l.collect {
			l.keys = append(l.keys, key)
		}
		s = tr.begin("store.sealed_get", root, req)
		payload, ok = l.sealed.Get(key)
		tr.end(s)
		if ok {
			l.counts.sealedHits++
		} else {
			l.counts.memoGets++
			if l.collect {
				l.memoKeys = append(l.memoKeys, key)
			}
			s = tr.begin("memo.get", root, req)
			payload, ok = l.cache.Get(key)
			tr.end(s)
			if ok {
				l.counts.memoHits++
			} else {
				s = tr.begin(computeSpan[r.Mode], root, req)
				payload, err = d.Compute(context.Background(), &r)
				tr.end(s)
				l.counts.computes++
				if err == nil {
					s = tr.begin("memo.put", root, req)
					l.cache.Put(key, payload)
					tr.end(s)
					if l.collect {
						l.puts = append(l.puts, memo.Entry{Key: key, Value: payload})
					}
				}
			}
		}
	}
	if err != nil {
		return verdict{}, err
	}

	s = tr.begin("service.wrap", root, req)
	v, err := d.WrapPayload(payload)
	tr.end(s)
	if err != nil {
		return verdict{}, err
	}
	s = tr.begin("service.encode", root, req)
	detail, err := json.Marshal(v.Detail)
	tr.end(s)
	if err != nil {
		return verdict{}, err
	}
	if l.collect {
		l.wraps = append(l.wraps, wrapIn{d, payload})
		l.details = append(l.details, v.Detail)
	}
	return newVerdict(v.Class.String(), detail)
}

// perCall times fn over n inputs, repeating rounds until at least
// minDur has passed, and returns seconds per call.
func perCall(n int, minDur time.Duration, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < minDur {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return time.Since(start).Seconds() / float64(calls)
}

// allocsPerCall counts heap allocations per call of fn over n inputs.
func allocsPerCall(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// reStats are the round-elimination guards and totals of a replay.
type reStats struct {
	alphabetMax int
	levels      int
}

func degreesOf(p *lcl.Problem) []int {
	var ds []int
	for d := range p.Node {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	return ds
}

// replayGap runs the Theorem 1.1 pipeline level by level the way
// re.RunGapPipeline does, with a span around each re call, and returns
// the verdict core.ClassifyOnTrees would.
func replayGap(tr *tracer, req int32, p *lcl.Problem, maxLevels int, st *reStats) (*core.TreeVerdict, error) {
	root := tr.begin("trees.verdict", -1, req)
	defer tr.end(root)
	s := tr.begin("lcl.validate", root, req)
	err := p.Validate()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	degrees := degreesOf(p)
	st.alphabetMax = max(st.alphabetMax, p.NumOut())
	done := func(constant, cycle bool, level int) (*core.TreeVerdict, error) {
		st.levels += level
		return &core.TreeVerdict{Constant: constant, LowerBound: cycle, Level: level}, nil
	}

	s = tr.begin("re.canonical", root, req)
	canons := []string{re.Canonical(p)}
	tr.end(s)
	s = tr.begin("re.zero_round", root, req)
	_, ok := re.ZeroRoundSolvable(p, degrees)
	tr.end(s)
	if ok {
		return done(true, false, 0)
	}
	seq := []*lcl.Problem{p}
	cur := p
	for t := 1; t <= maxLevels; t++ {
		s = tr.begin("re.apply_r", root, req)
		r, err := re.Apply(cur, re.OpR, re.Pruned, re.Limits{})
		tr.end(s)
		if err != nil {
			return done(false, false, t-1)
		}
		st.alphabetMax = max(st.alphabetMax, r.Prob.NumOut())
		s = tr.begin("re.apply_rbar", root, req)
		rr, err := re.Apply(r.Prob, re.OpRBar, re.Pruned, re.Limits{})
		tr.end(s)
		if err != nil {
			return done(false, false, t-1)
		}
		cur = rr.Prob
		st.alphabetMax = max(st.alphabetMax, cur.NumOut())
		s = tr.begin("re.zero_round", root, req)
		_, ok := re.ZeroRoundSolvable(cur, degrees)
		tr.end(s)
		if ok {
			return done(true, false, t)
		}
		s = tr.begin("re.canonical", root, req)
		c := re.Canonical(cur)
		tr.end(s)
		for earlier, ec := range canons {
			if ec != c {
				continue
			}
			s = tr.begin("re.isomorphic", root, req)
			iso := re.Isomorphic(seq[earlier], cur)
			tr.end(s)
			if iso {
				return done(false, true, t)
			}
		}
		canons = append(canons, c)
		seq = append(seq, cur)
	}
	return done(false, false, maxLevels)
}

// treeJob is one trees computation to replay, with the verdict the
// server returned for it.
type treeJob struct {
	p      *lcl.Problem
	levels int
	served verdict
}

// reReplay is the outcome of replaying a workload's trees computations.
type reReplay struct {
	coreS      float64 // core.ClassifyOnTrees, untraced
	allocs     float64 // per verdict, untraced
	rows       []layerTime
	spans      []span
	st         reStats
	mismatches []string
	tracedS    float64
}

// replayTrees replays each job twice in turn: through
// core.ClassifyOnTrees untraced (the cross-check total and
// allocations), then level by level with spans.
func replayTrees(jobs []treeJob) *reReplay {
	out := &reReplay{}
	if len(jobs) == 0 {
		return out
	}
	trees, _ := service.DefaultRegistry().Get(service.ModeTrees)
	tr := newTracer(len(jobs) * 16)
	var before, after runtime.MemStats
	var mallocs uint64
	var coreT, tracedT time.Duration
	runtime.GC()
	for i, j := range jobs {
		// core and the traced replay alternate job by job, so that a
		// drift of the machine's speed during the run moves both alike.
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		core.ClassifyOnTrees(j.p, j.levels)
		coreT += time.Since(t0)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs

		t0 = time.Now()
		v, err := replayGap(tr, int32(i), j.p, j.levels, &out.st)
		tracedT += time.Since(t0)
		if err != nil {
			out.mismatches = append(out.mismatches, fmt.Sprintf("trees replay %s: %v", j.p.Name, err))
			continue
		}
		got, err := wrapVerdict(trees, v)
		if err != nil || got != j.served {
			out.mismatches = append(out.mismatches, fmt.Sprintf("trees replay %s: replayed %+v, served %+v", j.p.Name, got, j.served))
		}
	}
	out.coreS = coreT.Seconds()
	out.tracedS = tracedT.Seconds()
	out.allocs = float64(mallocs) / float64(len(jobs))
	out.spans = tr.spans
	out.rows = selfTable(tr.spans)
	return out
}

// reSpanSum is the summed self time of the re.* spans.
func (r *reReplay) reSpanSum() float64 {
	var sum float64
	for _, name := range []string{"re.apply_r", "re.apply_rbar", "re.zero_round", "re.canonical", "re.isomorphic"} {
		sum += layerSelf(r.rows, name)
	}
	return sum
}
