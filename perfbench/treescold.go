package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"time"
)

// treesPassSeconds is about how long a trees-cold pass takes on 2 cores.
// A run makes seconds/treesPassSeconds passes (at least one), a number
// fixed by the run length alone, so a faster or slower program does the
// same work.
const treesPassSeconds = 20

// runTrees runs trees-cold: whole passes over the seeded input set, each
// against a freshly started server so every verdict is computed.
func runTrees(rc *runCtx) (*result, error) {
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	table, err := loadGolden(goldenPath)
	if err != nil {
		return nil, err
	}
	items := treesPass(rc.seed)
	res.notef("pass of %d problems", len(items))

	var setups, setupWalls []float64 // server CPU seconds, wall seconds
	var srv *server
	for i := 0; i < setupRunsTrees; i++ {
		t0 := time.Now()
		s, err := startServer(rc.serverBin, rc.sealedPath, filepath.Join(rc.outDir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		cpu, err := s.cpu()
		if err != nil {
			s.stop()
			return nil, err
		}
		setups = append(setups, cpu)
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		if i < setupRunsTrees-1 {
			s.stop()
		} else {
			srv = s
		}
	}

	var (
		lat      []float64 // wall seconds per request, every pass
		cpu      []float64 // server CPU seconds per request, every pass
		slowest  []float64 // per pass: the most server CPU one request took
		slowWall []float64 // per pass: the longest wall time of a request
		slowName string
		passCPU  float64
		served   []verdict
		passTime float64
		allocB   float64
		rss      float64
		handler  [2]float64 // seconds, count
		errs     float64
		verdicts int
	)
	// order is a pass's send order, as indexes into items. Each pass
	// after the first sends the problems in another seeded order: the
	// server's garbage collections land on whichever request is in
	// flight, so with one order a problem would meet the same
	// collections in every pass, and its samples would repeat one
	// another instead of adding to the percentiles.
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	reorder := rand.New(rand.NewSource(rc.seed ^ 0x0bde7))
	passes := max(1, int(rc.seconds.Seconds())/treesPassSeconds)
	for pass := 0; pass < passes; pass++ {
		if pass > 0 {
			reorder.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		if srv == nil {
			if srv, err = startServer(rc.serverBin, rc.sealedPath, filepath.Join(rc.outDir, "server-pass.log")); err != nil {
				return nil, err
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
		url := srv.base + rc.workload.Route
		maxCPU, maxLat, maxName := 0.0, 0.0, ""
		cpu0, err := srv.cpu()
		if err != nil {
			srv.stop()
			return nil, err
		}
		prev := cpu0
		t0 := time.Now()
		for _, i := range order {
			it := items[i]
			r0 := time.Now()
			status, raw, err := post(c, url, it.Body)
			l := time.Since(r0).Seconds()
			now, cerr := srv.cpu()
			if cerr != nil {
				srv.stop()
				return nil, cerr
			}
			// The server is idle between requests of the one connection,
			// so the CPU it used since the previous response is this
			// request's.
			cs := now - prev
			prev = now
			lat = append(lat, l)
			cpu = append(cpu, cs)
			verdicts++
			if cs > maxCPU {
				maxCPU, maxName = cs, it.Key
			}
			maxLat = max(maxLat, l)
			got, perr := decodeTrees(status, raw, err)
			if pass == 0 {
				served = append(served, got)
			}
			if perr != nil {
				res.failed++
				res.incorrect(fmt.Sprintf("%s: %v", it.Key, perr))
				continue
			}
			if msg := checkGolden(table, it.Key, got.Class, []byte(got.Detail)); msg != "" {
				res.failed++
				res.incorrect(msg)
			}
		}
		elapsed := time.Since(t0).Seconds()
		after, err1 := srv.scrape(c)
		stAfter, err2 := srv.statsz(c)
		r, err3 := srv.peakRSSMiB()
		c.CloseIdleConnections()
		srv.stop()
		srv = nil
		for _, err := range []error{err1, err2, err3} {
			if err != nil {
				return nil, err
			}
		}
		passTime += elapsed
		passCPU += prev - cpu0
		slowest = append(slowest, maxCPU)
		slowWall = append(slowWall, maxLat)
		slowName = maxName
		allocB += delta(before, after, "lcl_go_alloc_bytes_total")
		rss = max(rss, r)
		series := fmt.Sprintf(`{route="%s"}`, rc.workload.Route)
		handler[0] += delta(before, after, "lcl_http_request_seconds_sum"+series)
		handler[1] += delta(before, after, "lcl_http_request_seconds_count"+series)
		errs += stAfter.Errors - stBefore.Errors
		res.notef("pass %d: %.3fs wall, %.3fs server CPU; most CPU: %s %.3fs", pass, elapsed, prev-cpu0, maxName, maxCPU)
	}
	res.attempted = verdicts

	// The percentiles pool the requests of every pass: two samples per
	// problem. Each problem's best pass, one sample, made cpu_p99_ms
	// spread 0.25 of its median over ten runs, against 0.11 pooled.
	sortedCPU := append([]float64(nil), cpu...)
	sort.Float64s(sortedCPU)
	sortedLat := append([]float64(nil), lat...)
	sort.Float64s(sortedLat)
	tailP := tailPercentile(len(sortedCPU))
	res.e2e["setup_s"] = median(setups)
	res.notef("setup_s is the median server CPU time of %d set-ups; their median wall time (not gated) is %.4f s", len(setups), median(setupWalls))
	res.e2e["verdicts_per_cpu_s"] = float64(verdicts-res.failed) / passCPU
	res.e2e["cpu_p50_ms"] = percentile(sortedCPU, 50) * 1e3
	res.e2e["cpu_p99_ms"] = percentile(sortedCPU, tailP) * 1e3
	res.e2e["slowest_cpu_s"] = median(slowest)
	res.e2e["alloc_kib_per_verdict"] = allocB / 1024 / float64(verdicts)
	res.e2e["rss_peak_mib"] = rss
	res.notef("cpu_p99_ms is p%g of %d requests; slowest_cpu_s is the median over %d passes of the request that took most server CPU (last pass: %s)",
		tailP, len(sortedCPU), passes, slowName)
	res.notef("wall clock (not gated): %.2f verdicts/s, latency p50 %.4f ms, p%g %.4f ms, slowest %.3f s (median over passes)",
		float64(verdicts-res.failed)/passTime, percentile(sortedLat, 50)*1e3, tailP, percentile(sortedLat, tailP)*1e3, median(slowWall))

	handlerMS := frac(handler[0], handler[1]) * 1e3
	clientMS := 0.0
	for _, l := range lat {
		clientMS += l
	}
	clientMS = clientMS / float64(len(lat)) * 1e3
	res.layer["service.handler_ms_mean"] = handlerMS
	res.layer["service.transport_ms_mean"] = clientMS - handlerMS
	res.layer["service.errors"] = errs

	if rc.trace {
		// The replay classifies what the server decoded, not the
		// in-memory problems the bodies were made from.
		jobs := make([]treeJob, len(items))
		for i, it := range items {
			req, err := decodeBody(it.Body)
			if err != nil {
				return nil, err
			}
			jobs[i] = treeJob{p: req.Problem, levels: req.MaxLevels, served: served[i]}
		}
		rr := replayTrees(jobs)
		addTreesLayers(res, rr)
		if rr.coreS > 0 {
			res.layer["bench.trace_overhead_frac"] = rr.tracedS/rr.coreS - 1
		}
		for _, m := range rr.mismatches {
			res.incorrect(m)
		}
		if err := writeTrace(rc, res, nil, nil, rr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// decodeTrees reads one trees response.
func decodeTrees(status int, raw []byte, err error) (verdict, error) {
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
