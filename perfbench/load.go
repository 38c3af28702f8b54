package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// wireResult is one verdict of a classify response.
type wireResult struct {
	Class  string          `json:"class"`
	Detail json.RawMessage `json:"detail"`
	Error  string          `json:"error"`
}

type wireBatch struct {
	Results []wireResult `json:"results"`
	Deduped int          `json:"deduped"`
}

// servedVerdict normalizes a served result to the form expect returns.
func servedVerdict(r *wireResult) (verdict, error) {
	return newVerdict(r.Class, r.Detail)
}

// newClient returns an HTTP client with one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// post sends one request and returns the status and body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, err
}

// deferredCheck is a first-seen verdict checked after the load ends, so
// computing its expectation does not compete with the server.
type deferredCheck struct {
	e   entry
	got verdict
}

// sample is one completed request: when it completed (seconds since the
// load started), its latency, the server CPU time it used, the verdicts
// it carried and lost, and whether it carried a first-seen computation.
type sample struct {
	done, lat, cpu float64
	verdicts, bad  int
	first          bool
}

// loadStats is what a closed-loop load phase observed.
type loadStats struct {
	requests int // HTTP requests completed
	verdicts int // verdicts attempted (batch items count one each)
	failed   int // verdicts lost to non-200s, transport errors or wrong answers
	samples  []sample
	deduped  int
	elapsed  float64
	firstN   int // first-seen verdicts checked
	errs     []string
	deferred []deferredCheck
	// served keeps the verdicts of the first requests of the sequence,
	// for the replay to compare against.
	served map[int][]verdict
	// norm memoizes servedVerdict by class and detail bytes: the pools
	// are finite, so the same results come back again and again, and
	// normalizing each afresh was most of the load generator's CPU.
	norm map[string]map[string]verdict
}

// normalize is servedVerdict, memoized in ls.norm.
func (ls *loadStats) normalize(r *wireResult) (verdict, error) {
	byDetail := ls.norm[r.Class]
	if v, ok := byDetail[string(r.Detail)]; ok {
		return v, nil
	}
	v, err := servedVerdict(r)
	if err != nil {
		return v, err
	}
	if byDetail == nil {
		byDetail = map[string]verdict{}
		ls.norm[r.Class] = byDetail
	}
	byDetail[string(r.Detail)] = v
	return v, nil
}

func (ls *loadStats) fail(n int, msg string) {
	ls.failed += n
	if len(ls.errs) < 5 {
		ls.errs = append(ls.errs, msg)
	}
}

// runLoad drives route on srv from one closed-loop connection for dur:
// it sends the stream's next request as soon as the previous response
// is read. The server is idle between requests, so the server CPU time
// used between two responses is the later request's. Responses of
// sequence numbers below keep are kept for the replay.
func runLoad(srv *server, route string, st *stream, sp *servePools, dur time.Duration, keep int) (*loadStats, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	url := srv.base + route
	ls := &loadStats{served: map[int][]verdict{}, norm: map[string]map[string]verdict{}}
	prev, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		seq, es := st.next()
		body := st.body(es)
		t0 := time.Now()
		status, raw, err := post(c, url, body)
		now := time.Now()
		cpu, cerr := srv.cpu()
		if cerr != nil {
			return nil, cerr
		}
		s := sample{done: now.Sub(start).Seconds(), lat: now.Sub(t0).Seconds(), cpu: cpu - prev, verdicts: len(es)}
		prev = cpu
		for _, e := range es {
			s.first = s.first || e.Pool == poolFirst
		}
		failed := ls.failed
		if err != nil || status != http.StatusOK {
			ls.fail(len(es), fmt.Sprintf("seq %d: status %d err %v %.200s", seq, status, err, raw))
		} else {
			ls.check(sp, seq, es, raw, keep)
		}
		s.bad = ls.failed - failed
		ls.samples = append(ls.samples, s)
		ls.requests++
		ls.verdicts += len(es)
	}
	ls.elapsed = time.Since(start).Seconds()
	return ls, nil
}

// check verifies the verdicts of one 200 response, queues first-seen
// ones for checkDeferred, and keeps them for the replay when seq is
// below keep.
func (ls *loadStats) check(sp *servePools, seq int, es []entry, raw []byte, keep int) {
	var b wireBatch
	if err := json.Unmarshal(raw, &b); err != nil || len(b.Results) != len(es) {
		ls.fail(len(es), fmt.Sprintf("seq %d: %d results, err %v", seq, len(b.Results), err))
		return
	}
	results := b.Results
	ls.deduped += b.Deduped
	var kept []verdict
	for i, e := range es {
		got, err := ls.normalize(&results[i])
		if err != nil || results[i].Error != "" {
			ls.fail(1, fmt.Sprintf("seq %d item %d: %s %v", seq, i, results[i].Error, err))
			continue
		}
		kept = append(kept, got)
		if e.Pool == poolFirst {
			ls.deferred = append(ls.deferred, deferredCheck{e, got})
			continue
		}
		if want, _ := sp.want(e); got != want {
			ls.fail(1, fmt.Sprintf("seq %d item %d (%s): served %+v, want %+v", seq, i, poolNames[e.Pool], got, want))
		}
	}
	if seq < keep && len(kept) == len(es) {
		ls.served[seq] = kept
	}
}

// loadWindows is how many equal windows of completion time a serve
// run's load is cut into; the end-to-end figures are medians over the
// windows, so a burst of contention on the machine shorter than a
// couple of windows does not move them.
const loadWindows = 5

// windowFigures are the figures of one window: the end-to-end ones in
// server CPU time, and the wall-clock ones the report prints beside
// them.
type windowFigures struct {
	requests int
	tailP    float64 // the percentile the tails report
	// Server CPU time: verdicts per CPU second, per-request median and
	// tail (seconds), and the firstTailP-th percentile of the firstN
	// requests carrying a first-seen item.
	verdictsPerCPU, cpuP50, cpuTail, firstCPUTail float64
	firstN                                        int
	// Wall clock, not gated.
	verdictsPerS, p50, tail float64
}

// firstTailP is the percentile of the requests carrying a first-seen
// item that slowest_cpu_s reports. It is fixed, not picked by
// tailPercentile, because about a fifth of the batches carry one: with
// several hundred of them in a window, the picked percentile would
// switch between p95 and p99 as the rate moved.
const firstTailP = 95

// windowed computes the figures of each window. Every window reports
// the same tail percentile, the highest its smallest window supports,
// so the median over windows never mixes two percentiles.
func (ls *loadStats) windowed() []windowFigures {
	width := ls.elapsed / loadWindows
	buckets := make([][]sample, loadWindows)
	for _, s := range ls.samples {
		i := min(int(s.done/width), loadWindows-1)
		buckets[i] = append(buckets[i], s)
	}
	fewest := len(ls.samples)
	for _, b := range buckets {
		fewest = min(fewest, len(b))
	}
	tailP := tailPercentile(fewest)
	out := make([]windowFigures, loadWindows)
	for i, b := range buckets {
		var lat, cpu, first []float64
		ok, cpuSum := 0, 0.0
		for _, s := range b {
			lat = append(lat, s.lat)
			cpu = append(cpu, s.cpu)
			cpuSum += s.cpu
			ok += s.verdicts - s.bad
			if s.first {
				first = append(first, s.cpu)
			}
		}
		sort.Float64s(lat)
		sort.Float64s(cpu)
		sort.Float64s(first)
		out[i] = windowFigures{
			requests:       len(cpu),
			tailP:          tailP,
			verdictsPerCPU: frac(float64(ok), cpuSum),
			cpuP50:         percentile(cpu, 50),
			cpuTail:        percentile(cpu, tailP),
			firstCPUTail:   percentile(first, firstTailP),
			firstN:         len(first),
			verdictsPerS:   float64(ok) / width,
			p50:            percentile(lat, 50),
			tail:           percentile(lat, tailP),
		}
	}
	return out
}

// checkDeferred checks the first-seen verdicts against their decider.
func (ls *loadStats) checkDeferred(sp *servePools) {
	for _, d := range ls.deferred {
		want, err := sp.want(d.e)
		if err != nil || d.got != want {
			ls.fail(1, fmt.Sprintf("first-seen %d: served %+v, want %+v (%v)", d.e.Idx, d.got, want, err))
		}
	}
	ls.firstN = len(ls.deferred)
	ls.deferred = nil
}
