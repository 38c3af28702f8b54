package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/service"
	"repro/internal/store"
)

var (
	sealedOnce  sync.Once
	sealedTable *store.SealedTable
	sealedErr   error
)

// testSealed builds the sealed table of the default seal configuration
// in memory, once per test binary.
func testSealed(t *testing.T) *store.SealedTable {
	t.Helper()
	sealedOnce.Do(func() {
		s, err := service.BuildSealed(service.DefaultSealConfig())
		if err != nil {
			sealedErr = err
			return
		}
		raw, err := store.EncodeSealed(s)
		if err != nil {
			sealedErr = err
			return
		}
		sealedTable, sealedErr = store.OpenSealed(raw)
	})
	if sealedErr != nil {
		t.Fatal(sealedErr)
	}
	return sealedTable
}

// streamBytes renders the first n batches of a fresh stream.
func streamBytes(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	sp, err := newServePools(seed, testSealed(t))
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(sp, seed)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		_, es := st.next()
		buf.Write(st.body(es))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestStreamSameSeedIsByteIdentical(t *testing.T) {
	a := streamBytes(t, 7, 100)
	if b := streamBytes(t, 7, 100); !bytes.Equal(a, b) {
		t.Fatal("same seed gave different request streams")
	}
	if c := streamBytes(t, 8, 100); bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
}

func TestStreamMix(t *testing.T) {
	sp, err := newServePools(3, testSealed(t))
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(sp, 3)
	var counts [numPools]int
	seenFirst := map[int32]bool{}
	const n = 100000
	for i := 0; i < n; i++ {
		e := st.draw()
		counts[e.Pool]++
		if e.Pool == poolFirst {
			if seenFirst[e.Idx] {
				t.Fatalf("first-seen request %d drawn twice", e.Idx)
			}
			seenFirst[e.Idx] = true
		}
	}
	want := [numPools]float64{mix[0], mix[1], 1 - mix[0] - mix[1]}
	for p, c := range counts {
		if got := float64(c) / n; got < want[p]-0.005 || got > want[p]+0.005 {
			t.Errorf("%s share %.4f, want about %.2f", poolNames[p], got, want[p])
		}
	}

	bs := newStream(sp, 3)
	dups, items := 0, 0
	for i := 0; i < 200; i++ {
		_, es := bs.next()
		for j, e := range es {
			items++
			for _, f := range es[:j] {
				if e == f {
					dups++
					break
				}
			}
		}
	}
	if got := float64(dups) / float64(items); got < batchDupFrac-0.03 {
		t.Errorf("in-batch duplicate share %.3f, want at least about %.2f", got, batchDupFrac)
	}
}

// TestServerCPUCountsOnlyRunningTime reads the process CPU clock of a
// child that spins and of one that sleeps.
func TestServerCPUCountsOnlyRunningTime(t *testing.T) {
	read := func(script string) float64 {
		cmd := exec.Command("sh", "-c", script)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
		time.Sleep(300 * time.Millisecond)
		cpu, err := (&server{cmd: cmd}).cpu()
		if err != nil {
			t.Fatal(err)
		}
		return cpu
	}
	if spin := read("while :; do :; done"); spin < 0.05 || spin > 0.4 {
		t.Errorf("spinning child: %.3fs of CPU in 0.3s", spin)
	}
	if idle := read("sleep 5"); idle > 0.05 {
		t.Errorf("sleeping child: %.3fs of CPU in 0.3s", idle)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {20, 50}, {19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-rank(c.n, p) < minTailSamples {
			t.Errorf("n=%d: p%g has fewer than %d samples beyond it", c.n, p, minTailSamples)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles([1 2 4]) = %g, %g; want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 15, End: 20, Parent: 1},  // inside a
		{Name: "d", Start: 90, End: 120, Parent: 0}, // runs past the root
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	rows := selfTable(spans)
	if rows[0].Name != "root" || rows[0].SelfNS != 40 {
		t.Errorf("largest self time row = %+v", rows[0])
	}

	tr := newTracer(4)
	r := tr.begin("root", -1, 7)
	c := tr.begin("child", r, 7)
	tr.end(c)
	tr.end(r)
	if len(tr.spans) != 2 || tr.spans[1].Parent != r || tr.spans[1].Req != 7 {
		t.Errorf("tracer spans = %+v", tr.spans)
	}
	var none *tracer
	if id := none.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	none.end(0)
	var buf bytes.Buffer
	if err := writeSpans(&buf, tr.spans); err != nil || strings.Count(buf.String(), "\n") != 2 {
		t.Errorf("span file = %q, %v", buf.String(), err)
	}
}

func TestGoldenCatchesFlippedVerdict(t *testing.T) {
	table, err := loadGolden("golden_trees.json")
	if err != nil {
		t.Fatal(err)
	}
	key := batteryKey(2, "sinkless-orientation", 2)
	g, ok := table[key]
	if !ok {
		t.Fatalf("golden table has no %s", key)
	}
	detail := func(verdict string, level int) []byte {
		raw, _ := json.Marshal(map[string]any{"verdict": verdict, "level": level})
		return raw
	}
	if msg := checkGolden(table, key, g.Class, detail(g.Verdict, g.Level)); msg != "" {
		t.Fatalf("matching verdict reported: %s", msg)
	}
	flipped := "O(1)"
	if g.Class == flipped {
		flipped = "unknown"
	}
	for name, msg := range map[string]string{
		"class":   checkGolden(table, key, flipped, detail(g.Verdict, g.Level)),
		"verdict": checkGolden(table, key, g.Class, detail(g.Verdict+"!", g.Level)),
		"level":   checkGolden(table, key, g.Class, detail(g.Verdict, g.Level+1)),
		"missing": checkGolden(table, "deg9/none@1", g.Class, detail(g.Verdict, g.Level)),
	} {
		if msg == "" {
			t.Errorf("flipped %s not caught", name)
		}
	}
}

func TestGoldenCoversEveryPass(t *testing.T) {
	table, err := loadGolden("golden_trees.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		items := treesPass(seed)
		if len(items) < 1600 {
			t.Fatalf("seed %d: pass of %d items", seed, len(items))
		}
		for _, it := range items {
			if _, ok := table[it.Key]; !ok {
				t.Fatalf("seed %d: no golden verdict for %s", seed, it.Key)
			}
		}
	}
}

func TestReplayGapMatchesCore(t *testing.T) {
	for _, p := range problems.All(2) {
		if p.Name == "3-edge-coloring" {
			continue // seconds at two levels; covered by the golden table
		}
		for _, levels := range []int{1, 2} {
			want, err := core.ClassifyOnTrees(p, levels)
			if err != nil {
				t.Fatal(err)
			}
			var st reStats
			got, err := replayGap(newTracer(16), 0, p, levels, &st)
			if err != nil {
				t.Fatal(err)
			}
			if goldenOf(got) != goldenOf(want) {
				t.Errorf("%s@%d: replay %+v, core %+v", p.Name, levels, goldenOf(got), goldenOf(want))
			}
		}
	}
}

// benchmarkJSON is the schema of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "bash perfbench/run.sh" || len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %+v", i, b.Workloads[i], w)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, j, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, j, m)
		}
		for _, e := range m.Moves {
			found := false
			for _, x := range endToEnd {
				found = found || x.Name == e
			}
			if !found {
				t.Errorf("%s moves unknown metric %s", m.Name, e)
			}
		}
	}
}
