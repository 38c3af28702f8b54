package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// loadRecords reads the untraced records of a results file.
func loadRecords(path string) ([]resultRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []resultRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r resultRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// envMismatch describes how two environments differ in what result
// comparisons require to match ("" when they agree).
func envMismatch(a, b envInfo, crossCommit bool) string {
	if a.GoVersion != b.GoVersion || a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS || a.SealedSHA256 != b.SealedSHA256 {
		return fmt.Sprintf("go/nproc/gomaxprocs/sealed artifact differ: %+v vs %+v", a, b)
	}
	if !crossCommit && (a.Commit != b.Commit || a.SourceSHA256 != b.SourceSHA256) {
		return fmt.Sprintf("commit or source differs: %s/%s vs %s/%s", a.Commit, a.SourceSHA256, b.Commit, b.SourceSHA256)
	}
	return ""
}

// compareFiles prints, per workload and end-to-end metric, each file's
// median and quartile spread (as a share of the median), and with two
// files the second median's change in the worse direction, against the
// metric's bound.
func compareFiles(w io.Writer, paths []string, crossCommit bool) error {
	if len(paths) < 1 || len(paths) > 2 {
		return fmt.Errorf("-compare takes one or two result files")
	}
	sets := make([]map[string][]resultRecord, len(paths))
	var env *envInfo
	for i, p := range paths {
		recs, err := loadRecords(p)
		if err != nil {
			return err
		}
		sets[i] = map[string][]resultRecord{}
		for _, r := range recs {
			if env == nil {
				e := r.Env
				env = &e
			} else if msg := envMismatch(*env, r.Env, crossCommit && i > 0); msg != "" {
				return fmt.Errorf("%s: results are not comparable: %s", p, msg)
			}
			sets[i][r.Workload] = append(sets[i][r.Workload], r)
		}
	}
	var names []string
	for name := range sets[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s\n", name)
		for _, m := range endToEnd {
			var meds [2]float64
			line := fmt.Sprintf("  %-24s bound %.2f", m.Name, m.Bound)
			for i, set := range sets {
				var vals []float64
				correct := true
				for _, r := range set[name] {
					vals = append(vals, r.Metrics[m.Name].Value)
					correct = correct && r.Correct
				}
				if len(vals) == 0 {
					continue
				}
				meds[i] = median(vals)
				q1, q3 := quartiles(vals)
				spread := frac(q3-q1, meds[i])
				flag := ""
				if spread > m.Bound/3 {
					flag = " (spread above a third of the bound)"
				}
				if !correct {
					flag += " (incorrect runs)"
				}
				line += fmt.Sprintf(" | n=%d median %.6g spread %.3f%s", len(vals), meds[i], spread, flag)
			}
			if len(sets) == 2 && meds[0] != 0 {
				worse := (meds[1] - meds[0]) / meds[0]
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := "within bound"
				if worse > m.Bound {
					verdict = "WORSE than bound"
				}
				line += fmt.Sprintf(" | change %+.3f worse-direction, %s", worse, verdict)
			}
			fmt.Fprintln(w, line)
		}
	}
	return nil
}
