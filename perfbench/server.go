package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/obs/promtext"
)

// server is one lclserver process in its production configuration:
// default flags plus -sealed, listening on a free loopback port.
type server struct {
	cmd      *exec.Cmd
	base     string
	exited   chan struct{}
	log      *os.File
	stopOnce sync.Once
}

// running holds the servers started and not yet stopped, so that an
// interrupted run stops them before it exits.
var running = struct {
	sync.Mutex
	servers map[*server]bool
}{servers: map[*server]bool{}}

// stopOnSignal stops every running server and exits when the benchmark
// is interrupted or terminated.
func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		running.Lock()
		servers := make([]*server, 0, len(running.servers))
		for s := range running.servers {
			servers = append(servers, s)
		}
		running.Unlock()
		for _, s := range servers {
			s.stop()
		}
		os.Exit(2)
	}()
}

// freeAddr returns a loopback address with a port nobody listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// startServer launches bin and waits until /healthz answers.
func startServer(bin, sealedPath, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-sealed", sealedPath)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	running.Lock()
	running.servers[s] = true
	running.Unlock()
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("lclserver exited during start-up (log: %s)", logPath)
		case <-time.After(500 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("lclserver not healthy after 30s (log: %s)", logPath)
		}
	}
}

// stop shuts the server down gracefully and waits for it to exit,
// killing it if it takes longer than 10 s.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
		s.log.Close()
		running.Lock()
		delete(running.servers, s)
		running.Unlock()
	})
}

// cpu returns the CPU time the server process has used, all threads
// together, read from its process CPU clock (clock_getcpuclockid). It
// counts only time the server ran: time its threads waited for a CPU,
// on this machine or while the hypervisor ran something else (steal),
// is left out, which makes it steadier than wall time on a shared host.
func (s *server) cpu() (float64, error) {
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) from the Linux headers.
	clock := int32(^uint32(s.cmd.Process.Pid)<<3 | 2)
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("server CPU clock: %v", e)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// peakRSSMiB reads the server's VmHWM.
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// statsz is the part of /statsz the benchmark reads.
type statsz struct {
	Errors    float64 `json:"errors"`
	Coalesced float64 `json:"coalesced"`
}

func (s *server) statsz(c *http.Client) (statsz, error) {
	var st statsz
	resp, err := c.Get(s.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// scrape is one read of the server's /metricsz.
type scrape struct {
	values map[string]float64
	hists  map[string]promtext.HistogramSeries // family name + labels
}

func (s *server) scrape(c *http.Client) (*scrape, error) {
	resp, err := c.Get(s.base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := promtext.Parse(resp.Body)
	if err != nil {
		return nil, err
	}
	sc := &scrape{values: promtext.Values(fams), hists: map[string]promtext.HistogramSeries{}}
	for _, f := range fams {
		if f.Kind != "histogram" {
			continue
		}
		for _, h := range f.Histograms() {
			sc.hists[f.Name+h.Labels] = h
		}
	}
	return sc, nil
}

// delta returns after-before of one series; sum over series sharing the
// prefix when the name ends in "{" (every label set of a family).
func delta(before, after *scrape, name string) float64 {
	if strings.HasSuffix(name, "{") {
		var d float64
		for k, v := range after.values {
			if strings.HasPrefix(k, name) {
				d += v - before.values[k]
			}
		}
		return d
	}
	return after.values[name] - before.values[name]
}

// histQuantile estimates quantile q of the observations a histogram
// series gained between two scrapes.
func histQuantile(before, after *scrape, series string, q float64) float64 {
	a, ok := after.hists[series]
	if !ok {
		return 0
	}
	b := before.hists[series]
	counts := make([]uint64, len(a.Counts))
	for i := range counts {
		counts[i] = a.Counts[i]
		if i < len(b.Counts) {
			counts[i] -= b.Counts[i]
		}
	}
	return promtext.QuantileFromBuckets(a.Bounds, counts, a.Count-b.Count, q)
}
