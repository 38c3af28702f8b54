package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/lcl"
	"repro/internal/problems"
	"repro/internal/service"
)

// treeItem is one trees-cold request.
type treeItem struct {
	Key     string // golden table key
	Problem *lcl.Problem
	Levels  int
	Body    []byte
}

// golden is one row of the trees-cold golden verdict table.
type golden struct {
	Class   string `json:"class"`
	Verdict string `json:"verdict"`
	Level   int    `json:"level"`
}

// treesDetail is the decoded detail of a trees response.
type treesDetail struct {
	Verdict string `json:"verdict"`
	Level   int    `json:"level"`
}

func batteryKey(deg int, name string, levels int) string {
	return fmt.Sprintf("deg%d/%s@%d", deg, name, levels)
}

func maskKey(k int, n2, e uint, levels int) string {
	cn, ce := enumerate.CanonicalKey(k, n2, e)
	return fmt.Sprintf("k%d/%d/%d@%d", k, cn, ce, levels)
}

// unsteadyBattery are battery entries left out of trees-cold. Their
// round elimination ranges over the problem's per-degree constraint map
// (re.prunedSeeds), so Go's randomized map order changes the label
// order of every later level and their cost varies up to 1.7× from run
// to run (3-edge-coloring@2: 7.7 s to 13.5 s on 2 cores) — and
// 4-coloring at degree 3 takes about 100 s in its wire form. The three
// heavy k=3 mask orbits, which have one degree and cost about 6.5 s
// each every time, carry the expensive inconclusive part of the pass
// instead.
var unsteadyBattery = map[string]bool{
	batteryKey(2, "3-edge-coloring", 2): true,
	batteryKey(3, "4-coloring", 1):      true,
	batteryKey(3, "5-edge-coloring", 1): true,
}

// treesBattery returns the battery part of the pass: problems.All(2) at
// two levels and problems.All(3) at one, without unsteadyBattery and
// without entries that would be memo hits of an earlier entry (same
// levels, same canonical fingerprint) — every verdict of the pass is
// computed.
func treesBattery() ([]treeItem, map[[2]uint64]bool) {
	seen := map[[2]uint64]bool{}
	var out []treeItem
	for _, b := range []struct{ deg, levels int }{{2, 2}, {3, 1}} {
		for _, p := range problems.All(b.deg) {
			key := batteryKey(b.deg, p.Name, b.levels)
			fp := canon.MustFingerprint(p)
			if unsteadyBattery[key] || seen[[2]uint64{uint64(b.levels), fp}] {
				continue
			}
			seen[[2]uint64{uint64(b.levels), fp}] = true
			out = append(out, treeItem{Key: key, Problem: p, Levels: b.levels})
		}
	}
	return out, seen
}

// maskLevels are the round-elimination depths each k=3 mask orbit is
// sent at. Two levels is where three orbits take seconds; one level
// (cheap) doubles the pass's request count, so its tail percentile has
// enough samples beyond it to be a p99.
var maskLevels = []int{2, 1}

// treesPass returns the trees-cold input set in seeded send order: the
// battery plus every k=3 cycle mask orbit at each of maskLevels (but
// those isomorphic to a battery entry), each as its canonical
// representative. Round elimination's cost depends on the label order,
// so a seeded relabeling would change the work from seed to seed; the
// seed only orders the pass.
func treesPass(seed int64) []treeItem {
	rng := rand.New(rand.NewSource(seed))
	items, seen := treesBattery()
	for _, levels := range maskLevels {
		enumerate.CycleRepRange(3, 0, enumerate.CycleMaskSpace(3), func(n2, e uint, _ int) error {
			p := enumerate.FromMasks(3, n2, e)
			if !seen[[2]uint64{uint64(levels), canon.MustFingerprint(p)}] {
				items = append(items, treeItem{Key: maskKey(3, n2, e, levels), Problem: p, Levels: levels})
			}
			return nil
		})
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i := range items {
		items[i].Body = mustBody(&wireReq{Mode: service.ModeTrees, Problem: items[i].Problem, MaxLevels: items[i].Levels})
	}
	return items
}

// goldenOf returns the golden row of a computed tree verdict.
func goldenOf(v *core.TreeVerdict) golden {
	return golden{Class: v.Lattice().String(), Verdict: v.String(), Level: v.Level}
}

// checkGolden compares a served trees response with the table. It
// returns a description of the mismatch, or "" when they agree.
func checkGolden(table map[string]golden, key string, class string, detail []byte) string {
	want, ok := table[key]
	if !ok {
		return fmt.Sprintf("%s: no golden verdict", key)
	}
	var d treesDetail
	if err := json.Unmarshal(detail, &d); err != nil {
		return fmt.Sprintf("%s: bad detail: %v", key, err)
	}
	got := golden{Class: class, Verdict: d.Verdict, Level: d.Level}
	if got != want {
		return fmt.Sprintf("%s: served %+v, golden %+v", key, got, want)
	}
	return ""
}

func loadGolden(path string) (map[string]golden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	table := map[string]golden{}
	if err := json.Unmarshal(raw, &table); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return table, nil
}

// wireProblem returns p as the server decodes it from its request body.
func wireProblem(p *lcl.Problem) (*lcl.Problem, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	q := &lcl.Problem{}
	return q, json.Unmarshal(raw, q)
}

// writeGolden computes the golden table — every battery entry and every
// k=3 orbit representative at each of maskLevels, each in its wire form
// — with core.ClassifyOnTrees and writes it to path, one row per line.
func writeGolden(path string) error {
	items, _ := treesBattery()
	for _, levels := range maskLevels {
		enumerate.CycleRepRange(3, 0, enumerate.CycleMaskSpace(3), func(n2, e uint, _ int) error {
			items = append(items, treeItem{Key: maskKey(3, n2, e, levels), Problem: enumerate.FromMasks(3, n2, e), Levels: levels})
			return nil
		})
	}
	table := map[string]golden{}
	for _, it := range items {
		p, err := wireProblem(it.Problem)
		if err != nil {
			return fmt.Errorf("%s: %v", it.Key, err)
		}
		v, err := core.ClassifyOnTrees(p, it.Levels)
		if err != nil {
			return fmt.Errorf("%s: %v", it.Key, err)
		}
		table[it.Key] = goldenOf(v)
	}
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := []byte("{\n")
	for i, k := range keys {
		row, _ := json.Marshal(table[k])
		kq, _ := json.Marshal(k)
		buf = append(buf, "  "...)
		buf = append(buf, kq...)
		buf = append(buf, ": "...)
		buf = append(buf, row...)
		if i < len(keys)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return os.WriteFile(path, buf, 0o644)
}
