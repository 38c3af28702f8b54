// Command perfbench is the repository benchmark. It launches the real
// lclserver binary in its production configuration (default flags plus
// -sealed <artifact from lcltool seal, default config>), drives it from
// one closed-loop connection with a seeded request stream, checks every
// verdict, and prints every metric by name and unit; times are the
// server's CPU time (see server.cpu). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, from the server's /metricsz and /statsz
// counters and from an in-process replay of the same inputs through
// each layer's public functions, with spans recorded here (the program
// itself is not instrumented).
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 40 --trace 0
//
// Other modes:
//
//	perfbench -write-golden perfbench/golden_trees.json   # regenerate the trees-cold table
//	perfbench -compare A.jsonl [B.jsonl]                  # spread and shift of result sets
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/store"
)

// setupRuns is how many times a run sets the server up; setup_s is the
// median. A trees-cold set-up is only a process start (about 10 ms), so
// it takes more of them.
const (
	setupRuns      = 9
	setupRunsTrees = 25
)

// goldenPath is the trees-cold golden table, relative to the
// repository root.
const goldenPath = "perfbench/golden_trees.json"

// envInfo is recorded with every result; result sets are compared only
// when it matches.
type envInfo struct {
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Commit       string `json:"git_commit"`
	SourceSHA256 string `json:"source_sha256"`
	SealedSHA256 string `json:"sealed_sha256"`
}

// runCtx is what every workload needs.
type runCtx struct {
	workload   workloadSpec
	seed       int64
	seconds    time.Duration
	trace      bool
	serverBin  string
	sealedPath string
	sealed     *store.SealedTable
	outDir     string
}

// result is one run's outcome.
type result struct {
	attempted int
	failed    int
	errs      []string
	e2e       map[string]float64
	layer     map[string]float64
	lines     []string // human-readable report lines
}

func (r *result) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) incorrect(msg string) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, msg)
	} else if len(r.errs) == 20 {
		r.errs = append(r.errs, "...")
	}
}

func main() {
	workload := flag.String("workload", "", "serve-batch or trees-cold")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 40, "measured seconds")
	trace := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	buildDir := flag.String("build-dir", ".bench_build", "directory holding bin/lclserver and bin/lcltool; outputs go under it")
	writeGoldenTo := flag.String("write-golden", "", "compute the trees-cold golden table, write it to this path and exit")
	compare := flag.Bool("compare", false, "compare the result files named as arguments and exit")
	crossCommit := flag.Bool("cross-commit", false, "with -compare: allow the two files to come from different commits")
	flag.Parse()

	if *writeGoldenTo != "" {
		if err := writeGolden(*writeGoldenTo); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		if err := compareFiles(os.Stdout, flag.Args(), *crossCommit); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: perfbench --workload serve-batch|trees-cold --seed N --seconds S --trace 0|1"))
	}
	stopOnSignal()
	if err := run(w, *seed, *seconds, *trace == 1, *buildDir); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(w workloadSpec, seed int64, seconds int, trace bool, buildDir string) error {
	rc := &runCtx{
		workload:  w,
		seed:      seed,
		seconds:   time.Duration(seconds) * time.Second,
		trace:     trace,
		serverBin: filepath.Join(buildDir, "bin", "lclserver"),
		outDir:    filepath.Join(buildDir, "perfbench"),
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	// The artifact is a build product of the default seal configuration
	// with a pinned timestamp, so identical code gives identical bytes.
	rc.sealedPath = filepath.Join(rc.outDir, "landscape.lclseal")
	seal := exec.Command(filepath.Join(buildDir, "bin", "lcltool"), "seal", "-out", rc.sealedPath, "-created", "1", "-q")
	seal.Stdout, seal.Stderr = io.Discard, os.Stderr
	if err := seal.Run(); err != nil {
		return fmt.Errorf("lcltool seal: %v", err)
	}
	var err error
	if rc.sealed, err = store.LoadSealed(rc.sealedPath); err != nil {
		return err
	}
	env, err := environment(rc.sealedPath)
	if err != nil {
		return err
	}

	var res *result
	switch w.Name {
	case "trees-cold":
		res, err = runTrees(rc)
	default:
		res, err = runServe(rc)
	}
	if err != nil {
		return err
	}
	return report(os.Stdout, rc, env, res)
}

// environment records what result comparisons must agree on.
func environment(sealedPath string) (envInfo, error) {
	env := envInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "none"}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	raw, err := os.ReadFile(sealedPath)
	if err != nil {
		return env, err
	}
	sum := sha256.Sum256(raw)
	env.SealedSHA256 = hex.EncodeToString(sum[:])
	env.SourceSHA256, err = sourceDigest(".")
	return env, err
}

// sourceDigest hashes every Go source and module file under root, so
// result sets from checkouts without git history still identify their
// code.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultRecord is one line of the results file.
type resultRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      envInfo `json:"env"`
	resultLine
}

func report(w io.Writer, rc *runCtx, env envInfo, res *result) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", rc.workload.Name, rc.seed, int(rc.seconds.Seconds()), rc.trace)
	fmt.Fprintf(w, "env go=%s nproc=%d gomaxprocs=%d commit=%s source_sha256=%s sealed_sha256=%s\n",
		env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.Commit, env.SourceSHA256[:16], env.SealedSHA256[:16])
	for _, l := range res.lines {
		fmt.Fprintln(w, l)
	}
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "verdicts sent=%d succeeded=%d failed=%d failed_frac=%g\n",
		res.attempted, res.attempted-res.failed, res.failed, failedFrac)
	for _, e := range res.errs {
		fmt.Fprintln(w, "incorrect:", e)
	}
	line := resultLine{
		Correct:   len(res.errs) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", m.Name, res.e2e[m.Name], m.Unit)
		if !rc.trace {
			line.Metrics[m.Name] = metricValue{res.e2e[m.Name], m.Unit}
		}
	}
	if rc.trace {
		for _, m := range perLayer {
			fmt.Fprintf(w, "layer  %-28s %14.6g %s\n", m.Name, res.layer[m.Name], m.Unit)
			line.Metrics[m.Name] = metricValue{res.layer[m.Name], m.Unit}
		}
	}
	rec := resultRecord{Workload: rc.workload.Name, Seed: rc.seed, Seconds: int(rc.seconds.Seconds()), Trace: rc.trace, Env: env, resultLine: line}
	if err := appendJSONLine(filepath.Join(rc.outDir, "results.jsonl"), rec); err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func appendJSONLine(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
