package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Cluster shape shared by every workload: 4 nodes, 2 slices (two
// replicas each), the 100ms round of the repo's verify recipe, every
// other setting at the daemon default (log engine, fsync, one data
// shard).
const (
	clusterNodes = 4
	clusterSlice = 2
	roundPeriod  = "100ms"
)

// procNode is one flasksd child process.
type procNode struct {
	id       int
	bind     string // advertised TCP address
	httpAddr string
	respAddr string
	dir      string
	logPath  string
	cmd      *exec.Cmd
	done     chan struct{} // closed once the process has been reaped
}

// procCluster is a loopback cluster of real flasksd processes.
type procCluster struct {
	bin   string
	root  string
	extra []string // flags every node gets (per workload)

	mu    sync.Mutex // guards nodes against the CPU sampler during a restart
	nodes []*procNode
}

// pids lists the running nodes' process ids.
func (c *procCluster) pids() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n.pid())
	}
	return out
}

var (
	liveMu    sync.Mutex
	liveProcs = map[*procNode]bool{}
)

// killAll SIGKILLs every child still running and reaps it; main calls
// it on every exit path.
func killAll() {
	liveMu.Lock()
	nodes := make([]*procNode, 0, len(liveProcs))
	for n := range liveProcs {
		nodes = append(nodes, n)
	}
	liveMu.Unlock()
	for _, n := range nodes {
		n.kill()
	}
}

var (
	reListen = regexp.MustCompile(`node \S+ listening on (\S+) \(`)
	reHTTP   = regexp.MustCompile(`observability plane listening on (\S+)`)
	reRESP   = regexp.MustCompile(`resp gateway listening on (\S+)`)
)

// spawn starts node id. bind/httpAddr may name fixed addresses (a
// restart reuses its ports) or be empty for kernel-chosen ones.
func (c *procCluster) spawn(id int, bind, httpAddr string, resp bool, flags ...string) (*procNode, error) {
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	if httpAddr == "" {
		httpAddr = "127.0.0.1:0"
	}
	n := &procNode{
		id:      id,
		dir:     filepath.Join(c.root, fmt.Sprintf("n%d", id)),
		logPath: filepath.Join(c.root, fmt.Sprintf("n%d.log", id)),
		done:    make(chan struct{}),
	}
	args := []string{
		"-id", fmt.Sprint(id), "-bind", bind, "-data", n.dir,
		"-slices", fmt.Sprint(clusterSlice), "-system-size", fmt.Sprint(clusterNodes),
		"-period", roundPeriod, "-status", "0", "-http-addr", httpAddr,
	}
	if id != 1 {
		args = append(args, "-seeds", "1@"+c.nodes[0].bind)
	}
	if resp {
		args = append(args, "-resp-addr", "127.0.0.1:0")
	}
	args = append(args, c.extra...)
	args = append(args, flags...)
	logf, err := os.Create(n.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	n.cmd = exec.Command(c.bin, args...)
	n.cmd.Stdout, n.cmd.Stderr = logf, logf
	// Children die with the benchmark even if it is killed outright.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start flasksd %d: %w", id, err)
	}
	liveMu.Lock()
	liveProcs[n] = true
	liveMu.Unlock()
	go func() {
		_ = n.cmd.Wait()
		close(n.done)
	}()
	if err := n.awaitAddrs(resp); err != nil {
		n.kill()
		return nil, err
	}
	return n, nil
}

// awaitAddrs polls the node's log for its bound addresses.
func (n *procNode) awaitAddrs(resp bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-n.done:
			return fmt.Errorf("flasksd %d exited at start: %s", n.id, n.tail())
		default:
		}
		b, _ := os.ReadFile(n.logPath)
		s := string(b)
		m1, m2, m3 := reListen.FindStringSubmatch(s), reHTTP.FindStringSubmatch(s), reRESP.FindStringSubmatch(s)
		if m1 != nil && m2 != nil && (!resp || m3 != nil) {
			n.bind, n.httpAddr = m1[1], m2[1]
			if resp {
				n.respAddr = m3[1]
			}
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("flasksd %d printed no addresses: %s", n.id, n.tail())
}

// tail returns the last lines of the node's log for error messages.
func (n *procNode) tail() string {
	f, err := os.Open(n.logPath)
	if err != nil {
		return ""
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) > 5 {
			lines = lines[1:]
		}
	}
	return strings.Join(lines, " | ")
}

// kill SIGKILLs the process and waits until it is reaped.
func (n *procNode) kill() {
	if n.cmd == nil || n.cmd.Process == nil {
		return
	}
	_ = n.cmd.Process.Kill()
	<-n.done
	liveMu.Lock()
	delete(liveProcs, n)
	liveMu.Unlock()
}

func (n *procNode) pid() int { return n.cmd.Process.Pid }

// ready reports whether /readyz answers 200.
func (n *procNode) ready() bool {
	_, code, err := httpGet("http://" + n.httpAddr + "/readyz")
	return err == nil && code == 200
}

// awaitReady polls /readyz on nodes until every one answers 200.
func awaitReady(nodes []*procNode, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	pending := append([]*procNode(nil), nodes...)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("node %d not ready after %s: %s", pending[0].id, limit, pending[0].tail())
		}
		next := pending[:0]
		for _, n := range pending {
			select {
			case <-n.done:
				return fmt.Errorf("flasksd %d exited: %s", n.id, n.tail())
			default:
			}
			if !n.ready() {
				next = append(next, n)
			}
		}
		pending = next
		if len(pending) > 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// bootCluster spawns the nodes (node 1 first, as everyone's seed),
// the RESP gateway on node 1 when asked, and waits for readiness.
func bootCluster(bin, root string, resp bool, extra []string) (*procCluster, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	c := &procCluster{bin: bin, root: root, extra: extra}
	for id := 1; id <= clusterNodes; id++ {
		n, err := c.spawn(id, "", "", resp && id == 1)
		if err != nil {
			c.destroy()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	if err := awaitReady(c.nodes, 30*time.Second); err != nil {
		c.destroy()
		return nil, err
	}
	return c, nil
}

// seeds returns the client contacts: at most nproc of the nodes.
func (c *procCluster) seeds(max int) []string {
	var out []string
	for _, n := range c.nodes {
		if len(out) == max {
			break
		}
		out = append(out, fmt.Sprintf("%d@%s", n.id, n.bind))
	}
	return out
}

// killAllNodes SIGKILLs every node (a crash, not a shutdown).
func (c *procCluster) killAllNodes() {
	for _, n := range c.nodes {
		n.kill()
	}
}

// destroy kills every node and removes the run directory.
func (c *procCluster) destroy() {
	c.killAllNodes()
	_ = os.RemoveAll(c.root)
}

// scrape reads every node's counters.
func (c *procCluster) scrape() ([]Scrape, error) {
	out := make([]Scrape, len(c.nodes))
	for i, n := range c.nodes {
		fams, err := scrapeMetrics(n.httpAddr)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", n.id, err)
		}
		m, err := scrapeMallocs(n.httpAddr)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", n.id, err)
		}
		ps, err := readProc(n.pid())
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", n.id, err)
		}
		out[i] = Scrape{Fams: fams, Mallocs: m, Proc: ps}
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
