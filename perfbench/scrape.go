package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dataflasks/internal/obs"
)

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat (100 on every Linux the benchmark targets).
const clockTick = 10 * time.Millisecond

// Scrape is one node's counters at one instant: its /metrics
// exposition, MemStats.Mallocs from pprof, and /proc accounting.
type Scrape struct {
	Fams    map[string]*obs.Family
	Mallocs float64
	Proc    ProcStats
}

// ProcStats is what the benchmark reads from /proc/<pid>.
type ProcStats struct {
	CPU        time.Duration // utime + stime
	Syscalls   float64       // syscr + syscw
	WriteBytes float64       // bytes the process caused to reach storage
	VmHWMKB    float64       // peak resident set
	VmRSSKB    float64       // resident set now
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func httpGet(url string) ([]byte, int, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// scrapeMetrics fetches and validates one /metrics document.
func scrapeMetrics(httpAddr string) (map[string]*obs.Family, error) {
	body, code, err := httpGet("http://" + httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics on %s: status %d", httpAddr, code)
	}
	return obs.ParseExposition(body)
}

// scrapeMallocs reads MemStats.Mallocs off the heap profile's debug
// text ("# Mallocs = N").
func scrapeMallocs(httpAddr string) (float64, error) {
	body, _, err := httpGet("http://" + httpAddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	return parseMallocs(body)
}

func parseMallocs(body []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("heap profile has no Mallocs line")
}

// readProc reads CPU time, syscall counts, storage writes and peak RSS
// of pid.
func readProc(pid int) (ProcStats, error) {
	var ps ProcStats
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	ps.CPU = time.Duration(ut+st) * clockTick

	io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return ps, err
	}
	kv := parseKV(io)
	ps.Syscalls = kv["syscr"] + kv["syscw"]
	ps.WriteBytes = kv["write_bytes"]

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	skv := parseKV(status)
	ps.VmHWMKB, ps.VmRSSKB = skv["VmHWM"], skv["VmRSS"]
	return ps, nil
}

// parseKV reads "name: value [unit]" lines.
func parseKV(b []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(val)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// value sums every sample of the named family (all label sets).
func value(fams map[string]*obs.Family, name string) float64 {
	f := fams[name]
	if f == nil {
		return 0
	}
	var s float64
	for _, smp := range f.Samples {
		if smp.Name == name {
			s += smp.Value
		}
	}
	return s
}

// Window is the per-node before/after scrape pair of a measured window.
type Window struct {
	Before, After []Scrape
}

// Delta sums a counter family's growth across nodes.
func (w Window) Delta(name string) float64 {
	var d float64
	for i := range w.After {
		d += value(w.After[i].Fams, name) - value(w.Before[i].Fams, name)
	}
	return d
}

// End sums a gauge family across nodes at the window's end.
func (w Window) End(name string) float64 {
	var s float64
	for i := range w.After {
		s += value(w.After[i].Fams, name)
	}
	return s
}

// HistQuantile reads quantile q off the growth of a histogram family
// (summed across nodes and label sets) as the upper bound of the
// bucket holding it, in seconds. It returns 0 when nothing was
// observed in the window.
func (w Window) HistQuantile(name string, q float64) float64 {
	growth := map[float64]float64{}
	add := func(fams map[string]*obs.Family, sign float64) {
		f := fams[name]
		if f == nil {
			return
		}
		for _, s := range f.Samples {
			if s.Name != name+"_bucket" {
				continue
			}
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				continue
			}
			growth[le] += sign * s.Value
		}
	}
	for i := range w.After {
		add(w.After[i].Fams, 1)
		add(w.Before[i].Fams, -1)
	}
	return bucketQuantile(growth, q)
}

// bucketQuantile takes cumulative bucket counts keyed by upper bound.
func bucketQuantile(cum map[float64]float64, q float64) float64 {
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 {
		return 0
	}
	total := cum[les[len(les)-1]]
	if total <= 0 {
		return 0
	}
	rank := math.Ceil(q * total)
	for _, le := range les {
		if cum[le] >= rank {
			if math.IsInf(le, 1) && len(les) > 1 {
				return les[len(les)-2]
			}
			return le
		}
	}
	return les[len(les)-1]
}

// ProcDelta sums a /proc quantity's growth across nodes.
func (w Window) ProcDelta(get func(ProcStats) float64) float64 {
	var d float64
	for i := range w.After {
		d += get(w.After[i].Proc) - get(w.Before[i].Proc)
	}
	return d
}

// MallocDelta sums MemStats.Mallocs growth across nodes.
func (w Window) MallocDelta() float64 {
	var d float64
	for i := range w.After {
		d += w.After[i].Mallocs - w.Before[i].Mallocs
	}
	return d
}

// rssSampler reads the nodes' resident sets every interval, so the
// window's memory can be reported as a median rather than one instant.
type rssSampler struct {
	pids func() []int
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []rssSample
}

type rssSample struct {
	at time.Time
	kb float64 // summed over the nodes
}

func startRSSSampler(pids func() []int, every time.Duration) *rssSampler {
	s := &rssSampler{pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	s.take()
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.take()
			case <-s.stop:
				s.take()
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) take() {
	rs := rssSample{at: time.Now()}
	for _, pid := range s.pids() {
		if ps, err := readProc(pid); err == nil {
			rs.kb += ps.VmRSSKB
		}
	}
	s.mu.Lock()
	s.samples = append(s.samples, rs)
	s.mu.Unlock()
}

// Stop takes a last sample and waits for the sampling goroutine.
func (s *rssSampler) Stop() {
	close(s.stop)
	<-s.done
}

// median is the median summed resident set over the samples taken
// inside [a, b], in kB.
func (s *rssSampler) median(a, b time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var vs []float64
	for _, c := range s.samples {
		if !c.at.Before(a) && !c.at.After(b) {
			vs = append(vs, c.kb)
		}
	}
	return median(vs)
}

// cpuSteal reads the machine's cumulative steal time from /proc/stat
// (zero where the kernel reports none): time a hypervisor ran someone
// else on the machine's CPUs, which slows every timing the benchmark takes.
func cpuSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return time.Duration(v) * clockTick
}
