package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/canon"
	"repro/internal/memo"
	"repro/internal/service"
)

// How much of the served stream the traced run replays in process.
const (
	replayBatches = 64 // batches of batchItems items
	// overheadRounds alternates untraced and traced replays this many
	// times; bench.trace_overhead_frac is the median ratio.
	overheadRounds = 11
)

// classifyOnce posts one single request and returns its verdict.
func classifyOnce(c *http.Client, url string, body []byte) (verdict, error) {
	status, raw, err := post(c, url, body)
	if err != nil {
		return verdict{}, err
	}
	if status != http.StatusOK {
		return verdict{}, fmt.Errorf("status %d: %.200s", status, raw)
	}
	var r wireResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return verdict{}, err
	}
	return servedVerdict(&r)
}

// warmUp sends every warm-pool and sealed-pool request once, so the
// memo cache holds the warm pool and lazy per-process tables are
// filled before timing. It returns the served warm-pool verdicts.
func warmUp(s *server, sp *servePools, res *result) ([]verdict, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	url := s.base + "/v1/classify"
	served := make([]verdict, len(sp.warm))
	for _, pool := range []struct {
		items []pooled
		out   []verdict
	}{{sp.warm, served}, {sp.sealed, nil}} {
		for i, p := range pool.items {
			got, err := classifyOnce(c, url, p.Body)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %v", p.Body, err)
			}
			if got != p.Want {
				res.incorrect(fmt.Sprintf("warm-up %s: served %+v, want %+v", p.Mode, got, p.Want))
			}
			if pool.out != nil {
				pool.out[i] = got
			}
		}
	}
	return served, nil
}

// runServe runs serve-batch.
func runServe(rc *runCtx) (*result, error) {
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	sp, err := newServePools(rc.seed, rc.sealed)
	if err != nil {
		return nil, err
	}
	res.notef("pools sealed=%d warm=%d first-seen=%d (k=4 representatives)", len(sp.sealed), len(sp.warm), len(sp.reps))

	var srv *server
	var warmServed []verdict
	var setups, setupWalls []float64 // server CPU seconds, wall seconds
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		s, err := startServer(rc.serverBin, rc.sealedPath, filepath.Join(rc.outDir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		ws, err := warmUp(s, sp, res)
		if err == nil {
			var cpu float64
			cpu, err = s.cpu()
			setups = append(setups, cpu)
			setupWalls = append(setupWalls, time.Since(t0).Seconds())
		}
		if err != nil {
			s.stop()
			return nil, err
		}
		if i < setupRuns-1 {
			s.stop()
		} else {
			srv, warmServed = s, ws
		}
	}

	c := newClient()
	before, err := srv.scrape(c)
	if err != nil {
		srv.stop()
		return nil, err
	}
	stBefore, err := srv.statsz(c)
	if err != nil {
		srv.stop()
		return nil, err
	}
	route := rc.workload.Route
	st := newStream(sp, rc.seed)
	ls, err := runLoad(srv, route, st, sp, rc.seconds, replayBatches)
	if err != nil {
		srv.stop()
		return nil, err
	}
	after, err1 := srv.scrape(c)
	stAfter, err2 := srv.statsz(c)
	rss, err3 := srv.peakRSSMiB()
	c.CloseIdleConnections()
	srv.stop()
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			return nil, err
		}
	}
	ls.checkDeferred(sp)
	if st.nFirst > len(sp.reps) {
		res.incorrect(fmt.Sprintf("first-seen pool exhausted: %d draws for %d representatives, so the later ones were memo hits; lower the first-seen share in gen.go", st.nFirst, len(sp.reps)))
	}
	res.attempted, res.failed = ls.verdicts, ls.failed
	for _, e := range ls.errs {
		res.incorrect(e)
	}

	wins := ls.windowed()
	pick := func(f func(windowFigures) float64) float64 {
		var xs []float64
		for _, w := range wins {
			xs = append(xs, f(w))
		}
		return median(xs)
	}
	res.e2e["setup_s"] = median(setups)
	res.notef("setup_s is the median server CPU time of %d set-ups; their median wall time (not gated) is %.4f s", len(setups), median(setupWalls))
	res.e2e["verdicts_per_cpu_s"] = pick(func(w windowFigures) float64 { return w.verdictsPerCPU })
	res.e2e["cpu_p50_ms"] = pick(func(w windowFigures) float64 { return w.cpuP50 }) * 1e3
	res.e2e["cpu_p99_ms"] = pick(func(w windowFigures) float64 { return w.cpuTail }) * 1e3
	res.e2e["slowest_cpu_s"] = pick(func(w windowFigures) float64 { return w.firstCPUTail })
	res.e2e["alloc_kib_per_verdict"] = delta(before, after, "lcl_go_alloc_bytes_total") / 1024 / float64(ls.verdicts)
	res.e2e["rss_peak_mib"] = rss
	res.notef("load requests=%d verdicts=%d elapsed_s=%.3f first_seen=%d", ls.requests, ls.verdicts, ls.elapsed, ls.firstN)
	for i, w := range wins {
		res.notef("window %d: %d requests; server CPU: %.1f verdicts/s, p50 %.4f ms, p%g %.4f ms, %d with a first-seen item, p%d %.4f ms; wall: %.1f verdicts/s, p50 %.4f ms, p%g %.4f ms",
			i, w.requests, w.verdictsPerCPU, w.cpuP50*1e3, w.tailP, w.cpuTail*1e3, w.firstN, firstTailP, w.firstCPUTail*1e3,
			w.verdictsPerS, w.p50*1e3, w.tailP, w.tail*1e3)
	}
	res.notef("verdicts_per_cpu_s, cpu_p50_ms, cpu_p99_ms and slowest_cpu_s are medians over the %d windows; slowest_cpu_s is the p%d server CPU time of the batches carrying a first-seen compute; the wall-clock figures are not gated",
		loadWindows, firstTailP)

	// Server-side layer counters.
	series := fmt.Sprintf(`{route="%s"}`, route)
	hCount := delta(before, after, "lcl_http_request_seconds_count"+series)
	handlerMS := 0.0
	if hCount > 0 {
		handlerMS = delta(before, after, "lcl_http_request_seconds_sum"+series) / hCount * 1e3
	}
	clientMS := 0.0
	for _, s := range ls.samples {
		clientMS += s.lat
	}
	clientMS = clientMS / float64(len(ls.samples)) * 1e3
	res.layer["service.handler_ms_mean"] = handlerMS
	res.layer["service.transport_ms_mean"] = clientMS - handlerMS
	res.layer["service.coalesced"] = stAfter.Coalesced - stBefore.Coalesced
	res.layer["service.errors"] = stAfter.Errors - stBefore.Errors
	res.layer["service.batch_dedup_frac"] = float64(ls.deduped) / float64(ls.verdicts)
	res.layer["store.sealed_hit_frac"] = frac(delta(before, after, "lcl_engine_sealed_hits_total{"),
		delta(before, after, "lcl_engine_sealed_hits_total{")+delta(before, after, "lcl_engine_sealed_misses_total{"))
	memoHits := delta(before, after, "lcl_memo_hits_total")
	res.layer["memo.hit_frac"] = frac(memoHits, memoHits+delta(before, after, "lcl_memo_misses_total"))
	res.layer["memo.evictions"] = delta(before, after, "lcl_memo_evictions_total")
	res.layer["go.gc_cycles_per_kverdict"] = delta(before, after, "lcl_go_gc_cycles_total") / (float64(ls.verdicts) / 1000)
	res.layer["go.gc_pause_p99_ms"] = histQuantile(before, after, "lcl_go_gc_pause_seconds", 0.99) * 1e3

	if rc.trace {
		if err := replayServe(rc, sp, ls, warmServed, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayServe is the traced part of a serve run: the first batches of
// the same stream replayed item by item through the single-request
// ladder and whole through Engine.NewBatch().Classify, plus per-call
// cost loops.
func replayServe(rc *runCtx, sp *servePools, ls *loadStats, warmServed []verdict, res *result) error {
	// The server's warm state: the warm pool in the memo cache and the
	// process-wide mask fingerprint table primed by the sealed pool.
	warm := newLadder(rc.sealed, nil)
	for _, pool := range [][]pooled{sp.warm, sp.sealed} {
		for _, p := range pool {
			if _, err := warm.classify(nil, 0, p.Body); err != nil {
				return err
			}
		}
	}
	warmEntries, _ := warm.cache.Export()

	st := newStream(sp, rc.seed)
	seqs := make([][]entry, replayBatches)
	for i := range seqs {
		_, seqs[i] = st.next()
	}
	mismatch := func(what string, seq, i int, got verdict) {
		want, ok := ls.served[seq]
		switch {
		case !ok:
			res.incorrect(fmt.Sprintf("%s: request %d has no served verdict to compare with", what, seq))
		case got != want[i]:
			res.incorrect(fmt.Sprintf("%s: request %d item %d: replayed %+v, served %+v", what, seq, i, got, want[i]))
		}
	}

	batchUS, err := replayBatch(rc, sp, seqs, res, mismatch)
	if err != nil {
		return err
	}
	res.layer["service.batch_us_per_item"] = batchUS

	// Pass 1: traced, first-seen fingerprints cold as on the server.
	tr := newTracer(replayBatches * batchItems * 12)
	l := newLadder(rc.sealed, warmEntries)
	l.collect = true
	id := int32(0)
	for seq, es := range seqs {
		for i, e := range es {
			got, err := l.classify(tr, id, sp.body(e))
			id++
			if err != nil {
				res.incorrect(fmt.Sprintf("replay %d/%d: %v", seq, i, err))
				continue
			}
			mismatch("replay", seq, i, got)
		}
	}
	rows := selfTable(tr.spans)
	spans := tr.spans

	// Untraced and traced replays alternate on fresh copies of the warm
	// state; the ratio of their wall times is the tracing overhead.
	var ratios []float64
	for r := 0; r < overheadRounds; r++ {
		var walls [2]float64
		for k, traced := range []bool{false, true} {
			var t *tracer
			if traced {
				t = newTracer(len(spans))
			}
			lr := newLadder(rc.sealed, warmEntries)
			t0 := time.Now()
			for _, es := range seqs {
				for _, e := range es {
					lr.classify(t, 0, sp.body(e))
				}
			}
			walls[k] = time.Since(t0).Seconds()
		}
		ratios = append(ratios, walls[1]/walls[0]-1)
	}
	res.layer["bench.trace_overhead_frac"] = median(ratios)

	c := l.counts
	res.notef("replay: %d verdicts, %d sealed hits, %d memo gets (%d hits), %d computes, %d canonicalizations",
		c.verdicts, c.sealedHits, c.memoGets, c.memoHits, c.computes, c.canonCalls)
	us := func(name string) float64 { return layerMean(rows, name) * 1e6 }
	res.layer["lcl.decode_us"] = us("lcl.decode")
	res.layer["enumerate.fast_fp_us"] = us("enumerate.fast_fp")
	res.layer["enumerate.fast_fp_accept_frac"] = frac(float64(c.fastAccepted), float64(c.verdicts))
	res.layer["canon.canonicalize_us"] = us("canon.canonicalize")
	res.layer["canon.calls_per_verdict"] = frac(float64(c.canonCalls), float64(c.verdicts))
	res.layer["canon.inexact_frac"] = frac(float64(c.canonInexact), float64(c.canonCalls))
	res.layer["classify.cycles_us"] = us("classify.cycles")
	res.layer["service.wrap_us"] = us("service.wrap")
	res.layer["service.encode_us"] = us("service.encode")

	const loop = 20 * time.Millisecond
	res.layer["lcl.decode_allocs"] = allocsPerCall(len(l.bodies), func(i int) { decodeBody(l.bodies[i]) })
	res.layer["canon.canonicalize_allocs"] = allocsPerCall(len(l.canonIn), func(i int) { canon.Canonicalize(l.canonIn[i]) })
	res.layer["service.wrap_allocs"] = allocsPerCall(len(l.wraps), func(i int) { l.wraps[i].d.WrapPayload(l.wraps[i].payload) })
	res.layer["service.encode_allocs"] = allocsPerCall(len(l.details), func(i int) { json.Marshal(l.details[i]) })
	res.layer["store.sealed_get_ns"] = perCall(len(l.keys), loop, func(i int) { rc.sealed.Get(l.keys[i]) }) * 1e9
	res.layer["memo.get_ns"] = perCall(len(l.memoKeys), loop, func(i int) { l.cache.Get(l.memoKeys[i]) }) * 1e9
	res.layer["memo.put_ns"] = putCost(l.puts, loop) * 1e9

	// Round elimination: the workload's trees computations are the warm
	// pool's, computed by the set-up.
	var jobs []treeJob
	for i, p := range sp.warm {
		if p.Mode != service.ModeTrees {
			continue
		}
		req, err := decodeBody(p.Body)
		if err != nil {
			return err
		}
		jobs = append(jobs, treeJob{p: req.Problem, levels: req.MaxLevels, served: warmServed[i]})
	}
	rr := replayTrees(jobs)
	addTreesLayers(res, rr)
	for _, m := range rr.mismatches {
		res.incorrect(m)
	}
	return writeTrace(rc, res, rows, spans, rr)
}

// replayBatch runs the batches through Engine.NewBatch().Classify on a
// fresh engine holding the server's warm state, checks every verdict,
// and returns the microseconds per item spent in Classify.
func replayBatch(rc *runCtx, sp *servePools, seqs [][]entry, res *result, mismatch func(string, int, int, verdict)) (float64, error) {
	eng := service.New(service.Config{Sealed: rc.sealed})
	defer eng.Close()
	for _, pool := range [][]pooled{sp.warm, sp.sealed} {
		for _, p := range pool {
			req, err := decodeBody(p.Body)
			if err != nil {
				return 0, err
			}
			if _, err := eng.Classify(req); err != nil {
				return 0, err
			}
		}
	}
	var spent time.Duration
	n := 0
	for seq, es := range seqs {
		reqs := make([]service.Request, len(es))
		for i, e := range es {
			r, err := decodeBody(sp.body(e))
			if err != nil {
				return 0, err
			}
			reqs[i] = r
		}
		b := eng.NewBatch()
		t0 := time.Now()
		out := b.Classify(context.Background(), reqs)
		spent += time.Since(t0)
		for i, it := range out {
			if it.Err != nil {
				res.incorrect(fmt.Sprintf("batch replay %d/%d: %v", seq, i, it.Err))
				continue
			}
			detail, _ := json.Marshal(it.Response.Detail)
			got, err := newVerdict(it.Response.Class.String(), detail)
			if err != nil {
				res.incorrect(fmt.Sprintf("batch replay %d/%d: %v", seq, i, err))
				continue
			}
			mismatch("batch replay", seq, i, got)
		}
		n += len(es)
		b.Release()
	}
	return spent.Seconds() / float64(n) * 1e6, nil
}

// putCost times memo.Cache.Put of entries into fresh caches.
func putCost(entries []memo.Entry, minDur time.Duration) float64 {
	if len(entries) == 0 {
		return 0
	}
	var spent time.Duration
	calls := 0
	for spent < minDur {
		c := memo.New(0, 0)
		t0 := time.Now()
		for _, e := range entries {
			c.Put(e.Key, e.Value)
		}
		spent += time.Since(t0)
		calls += len(entries)
	}
	return spent.Seconds() / float64(calls)
}

// addTreesLayers fills the re/core layer metrics from a trees replay.
func addTreesLayers(res *result, rr *reReplay) {
	res.layer["re.apply_r_s"] = layerSelf(rr.rows, "re.apply_r")
	res.layer["re.apply_rbar_s"] = layerSelf(rr.rows, "re.apply_rbar")
	res.layer["re.zero_round_s"] = layerSelf(rr.rows, "re.zero_round")
	res.layer["re.canonical_s"] = layerSelf(rr.rows, "re.canonical")
	res.layer["re.allocs_per_verdict"] = rr.allocs
	res.layer["re.alphabet_max"] = float64(rr.st.alphabetMax)
	res.layer["re.levels_total"] = float64(rr.st.levels)
	res.layer["core.classify_trees_s"] = rr.coreS
	if rr.coreS > 0 {
		res.notef("re replay: re.* spans %.4fs against core.ClassifyOnTrees %.4fs (ratio %.3f)",
			rr.reSpanSum(), rr.coreS, rr.reSpanSum()/rr.coreS)
	}
}

// writeTrace writes the span file and the self-time table, and adds the
// table to the report.
func writeTrace(rc *runCtx, res *result, rows []layerTime, spans []span, rr *reReplay) error {
	// The trees replay's request ids follow the ladder's.
	next := int32(0)
	for _, s := range spans {
		next = max(next, s.Req+1)
	}
	all := append([]span(nil), spans...)
	base := int32(len(all))
	for _, s := range rr.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Req += next
		all = append(all, s)
	}
	spanPath := filepath.Join(rc.outDir, "spans-"+rc.workload.Name+".jsonl")
	if err := writeSpanFile(spanPath, all); err != nil {
		return err
	}
	table := ""
	if len(rows) > 0 {
		table += "serving ladder replay, self time per layer:\n" + renderSelfTable(rows)
	}
	if len(rr.rows) > 0 {
		table += "round-elimination replay, self time per layer:\n" + renderSelfTable(rr.rows)
	}
	tablePath := filepath.Join(rc.outDir, "selftime-"+rc.workload.Name+".txt")
	if err := os.WriteFile(tablePath, []byte(table), 0o644); err != nil {
		return err
	}
	res.notef("%d spans written to %s; self-time table in %s", len(all), spanPath, tablePath)
	res.lines = append(res.lines, table)
	return nil
}
