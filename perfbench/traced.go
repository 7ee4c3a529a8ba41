package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dataflasks"
	"dataflasks/internal/core"
	"dataflasks/internal/metrics"
	"dataflasks/internal/resp"
	"dataflasks/internal/store"
	"dataflasks/internal/transport"
	"dataflasks/internal/wire"
)

// The traced run rebuilds the cluster in process from the layer
// packages, the way node.go assembles a flasksd node, with a timing
// decorator at every layer boundary. Its spans give the per-layer
// numbers; its end-to-end figures beside the untraced run's give the
// tracing overhead.
//
// One difference from flasksd: the benchmark's event loop runs the
// data plane inline (core's classic one-shard runtime, without
// StartShards), so every store call and send a data message causes is
// made inside the HandleMessage span that caused it and its self time
// is measurable. flasksd hands the same messages to one shard
// goroutine; the protocol is identical, which the message and byte
// counts check.

// Span kinds.
const (
	spClientSubmit = iota
	spRESPCommand
	spRESPBackend
	spMailboxWait
	spHandle
	spTick
	spEncode
	spDecode
	spSend
	spStorePut
	spStorePutBatch
	spStoreGet
	spStoreDelete
	spStoreDeleteBatch
	spStoreStreamObjects
	spStoreStreamSegments
	spStoreScan
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.submit", "resp.command", "resp.backend", "core.mailbox_wait", "core.handle",
	"core.tick", "wire.encode", "wire.decode", "transport.send", "store.put",
	"store.put_batch", "store.get", "store.delete", "store.delete_batch",
	"store.stream_objects", "store.stream_segments", "store.scan",
}

// Span is one timed interval at a layer boundary.
type Span struct {
	Kind   uint8
	Node   int8  // -1: the load process
	Parent int32 // index of the enclosing span, -1 for none
	Trace  uint64
	Start  int64 // ns since the tracer's epoch
	End    int64
	Objs   int32 // objects a store batch call carried
}

// Tracer keeps every span in memory until the run ends.
type Tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []Span
	byKey map[string]uint64 // key → trace id of its newest operation
	on    atomic.Bool       // record only inside the measured window
}

func newTracer() *Tracer {
	return &Tracer{epoch: time.Now(), byKey: map[string]uint64{}}
}

func (t *Tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// open starts a span and returns its index (-1 when not recording).
func (t *Tracer) open(kind uint8, node int, parent int32, trace uint64) int32 {
	if !t.on.Load() {
		return -1
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Kind: kind, Node: int8(node), Parent: parent, Trace: trace, Start: now})
	return int32(len(t.spans) - 1)
}

func (t *Tracer) close(i int32, objs int) {
	if i < 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[i].End = now
	t.spans[i].Objs = int32(objs)
	t.mu.Unlock()
}

// record adds a finished span.
func (t *Tracer) record(kind uint8, node int, parent int32, trace uint64, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Kind: kind, Node: int8(node), Parent: parent, Trace: trace, Start: t.ns(start), End: t.ns(end)})
	t.mu.Unlock()
}

// begin allocates a trace id for one operation over keys.
func (t *Tracer) begin(keys ...string) uint64 {
	id := t.next.Add(1)
	t.mu.Lock()
	for _, k := range keys {
		t.byKey[k] = id
	}
	t.mu.Unlock()
	return id
}

// traceOfKey names the newest operation on key (store calls carry no
// trace id, so they are matched by key).
func (t *Tracer) traceOfKey(key string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[key]
}

func (t *Tracer) clientSpan(id uint64, start, end time.Time) {
	t.record(spClientSubmit, -1, -1, id, start, end)
}

// respCommand records the load side's view of one RESP command.
func (t *Tracer) respCommand(start, end time.Time) {
	t.record(spRESPCommand, -1, -1, 0, start, end)
}

// respBackend records one gateway backend operation.
func (t *Tracer) respBackend(trace uint64, start, end time.Time) {
	t.record(spRESPBackend, 0, -1, trace, start, end)
}

// traceOf extracts the trace id a core request carries.
func traceOf(msg interface{}) uint64 {
	switch m := msg.(type) {
	case *core.PutRequest:
		return m.TraceID
	case *core.GetRequest:
		return m.TraceID
	case *core.PutBatchRequest:
		return m.TraceID
	case *core.DeleteRequest:
		return m.TraceID
	case *core.DeleteBatchRequest:
		return m.TraceID
	}
	return 0
}

// --- decorators -------------------------------------------------------------

// timedCodec times frame encoding and decoding.
type timedCodec struct {
	transport.WireCodec
	n *tracedNode
}

func (c timedCodec) Encode(buf []byte, env *transport.WireEnvelope) ([]byte, error) {
	i := c.n.tr.open(spEncode, c.n.idx, c.n.curSend.Load(), traceOf(env.Msg))
	out, err := c.WireCodec.Encode(buf, env)
	c.n.tr.close(i, 0)
	return out, err
}

func (c timedCodec) Decode(data []byte) (*transport.WireEnvelope, error) {
	start := time.Now()
	env, err := c.WireCodec.Decode(data)
	var trace uint64
	if err == nil {
		trace = traceOf(env.Msg)
	}
	c.n.tr.record(spDecode, c.n.idx, -1, trace, start, time.Now())
	return env, err
}

// timedSender times every send the core makes.
type timedSender struct {
	inner transport.Sender
	n     *tracedNode
}

func (s timedSender) Send(ctx context.Context, to transport.NodeID, msg interface{}) error {
	i := s.n.tr.open(spSend, s.n.idx, s.n.cur.Load(), traceOf(msg))
	s.n.curSend.Store(i)
	err := s.inner.Send(ctx, to, msg)
	s.n.curSend.Store(-1)
	s.n.tr.close(i, 0)
	return err
}

// timedStore times every store call; calls carry no trace id, so the
// span takes the trace of the newest operation on its (first) key.
type timedStore struct {
	store.Store
	n *tracedNode
}

func (s *timedStore) span(kind uint8, key string) int32 {
	var trace uint64
	if key != "" {
		trace = s.n.tr.traceOfKey(key)
	}
	return s.n.tr.open(kind, s.n.idx, s.n.cur.Load(), trace)
}

func (s *timedStore) Put(key string, version uint64, value []byte) error {
	i := s.span(spStorePut, key)
	err := s.Store.Put(key, version, value)
	s.n.tr.close(i, 1)
	return err
}

func (s *timedStore) PutBatch(objs []store.Object) error {
	var key string
	if len(objs) > 0 {
		key = objs[0].Key
	}
	i := s.span(spStorePutBatch, key)
	err := s.Store.PutBatch(objs)
	s.n.tr.close(i, len(objs))
	return err
}

func (s *timedStore) Get(key string, version uint64) ([]byte, uint64, bool, error) {
	i := s.span(spStoreGet, key)
	v, ver, ok, err := s.Store.Get(key, version)
	s.n.tr.close(i, 1)
	return v, ver, ok, err
}

func (s *timedStore) Delete(key string, version uint64) (bool, error) {
	i := s.span(spStoreDelete, key)
	ok, err := s.Store.Delete(key, version)
	s.n.tr.close(i, 1)
	return ok, err
}

func (s *timedStore) DeleteBatch(items []store.Deletion) ([]bool, error) {
	var key string
	if len(items) > 0 {
		key = items[0].Key
	}
	i := s.span(spStoreDeleteBatch, key)
	ok, err := s.Store.DeleteBatch(items)
	s.n.tr.close(i, len(items))
	return ok, err
}

func (s *timedStore) StreamObjects(refs []store.Ref, fn func(o store.Object) bool) (int, error) {
	i := s.span(spStoreStreamObjects, "")
	n, err := s.Store.StreamObjects(refs, fn)
	s.n.tr.close(i, len(refs))
	return n, err
}

func (s *timedStore) StreamSegments(refs []store.SegmentRef, fn func(c store.SegmentChunk) bool) error {
	i := s.span(spStoreStreamSegments, "")
	err := s.Store.StreamSegments(refs, fn)
	s.n.tr.close(i, 0)
	return err
}

func (s *timedStore) ForEach(fn func(key string, version uint64) bool) error {
	i := s.span(spStoreScan, "")
	err := s.Store.ForEach(fn)
	s.n.tr.close(i, 0)
	return err
}

// Seal forwards to engines that seal their active segment before a
// bootstrap manifest (the log engine); the bootstrap server looks for
// it by type assertion, so hiding it would change what joiners fetch.
func (s *timedStore) Seal() error {
	if sl, ok := s.Store.(interface{ Seal() error }); ok {
		return sl.Seal()
	}
	return nil
}

// timedBackend times the RESP gateway's calls into its client and
// stamps each with a trace id.
type timedBackend struct {
	*dataflasks.Client
	tr *Tracer
}

// watch closes the backend span when op completes. The gateway's
// futures offer no callback, so one goroutine waits per operation.
func (b timedBackend) watch(trace uint64, start time.Time, op *dataflasks.Op) {
	go func() {
		<-op.Done()
		end := time.Now()
		b.tr.respBackend(trace, start, end)
		b.tr.clientSpan(trace, start, end)
	}()
}

func (b timedBackend) PutAsync(key string, version uint64, value []byte, opts ...dataflasks.OpOption) *dataflasks.Op {
	id := b.tr.begin(key)
	start := time.Now()
	op := b.Client.PutAsync(key, version, value, append(opts, dataflasks.WithTraceID(id))...)
	b.watch(id, start, op)
	return op
}

func (b timedBackend) GetLatestAsync(key string, opts ...dataflasks.OpOption) *dataflasks.Op {
	id := b.tr.begin(key)
	start := time.Now()
	op := b.Client.GetLatestAsync(key, append(opts, dataflasks.WithTraceID(id))...)
	b.watch(id, start, op)
	return op
}

// --- in-process assembly ----------------------------------------------------

// queued is a mailbox entry stamped with its enqueue time.
type queued struct {
	env transport.Envelope
	at  time.Time
}

// tracedNode is one node assembled from the layer packages.
type tracedNode struct {
	idx  int
	id   transport.NodeID
	dir  string
	bind string
	tr   *Tracer

	net     *transport.TCPNetwork
	wstats  *metrics.WireStats
	st      store.Store
	core    *core.Node
	mailbox chan queued
	cmds    chan func()
	done    chan struct{}
	wg      sync.WaitGroup
	cancel  context.CancelFunc

	cur      atomic.Int32 // span the event loop is inside (-1: none)
	curSend  atomic.Int32 // send span in progress on the loop (-1: none)
	ready    atomic.Bool
	drops    atomic.Uint64
	stopOnce sync.Once
}

// startTracedNode assembles and starts one node. seed is node 1's
// address ("" for node 1 itself).
func startTracedNode(tr *Tracer, idx int, dir, bind, seed string, segBytes int64, bootstrap bool) (*tracedNode, error) {
	n := &tracedNode{
		idx: idx, id: transport.NodeID(idx + 1), dir: dir, tr: tr,
		wstats:  &metrics.WireStats{},
		mailbox: make(chan queued, 4096), // flasksd's node mailbox size
		cmds:    make(chan func()),
		done:    make(chan struct{}),
	}
	n.cur.Store(-1)
	n.curSend.Store(-1)
	inner, _ := wire.CodecByName("binary")
	handler := func(env transport.Envelope) {
		select {
		case n.mailbox <- queued{env, time.Now()}:
		default:
			n.drops.Add(1)
		}
	}
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	net, err := transport.ListenTCP(n.id, bind, "", transport.TCPConfig{
		Codec: timedCodec{WireCodec: inner, n: n}, Stats: n.wstats,
	}, handler)
	if err != nil {
		return nil, err
	}
	n.net, n.bind = net, net.Addr()
	cfg := core.Config{
		Slices: clusterSlice, SystemSize: clusterNodes,
		PSS: core.PSSCyclon, Slicer: core.SlicerRank,
		Bootstrap:     bootstrap,
		RoundPeriod:   100 * time.Millisecond,
		AdvertiseAddr: net.Addr(),
		AddressBook:   net,
		Store:         core.StoreConfig{Engine: core.StoreLog, Fsync: true, SegmentMaxBytes: segBytes},
	}
	st, err := cfg.Store.Open(dir)
	if err != nil {
		net.Close()
		return nil, err
	}
	n.st = &timedStore{Store: st, n: n}
	n.core = core.NewNode(n.id, cfg, n.st, timedSender{inner: net.Sender(), n: n})
	var seeds []transport.NodeID
	if seed != "" {
		net.Learn(1, seed)
		seeds = append(seeds, 1)
	}
	n.core.Bootstrap(seeds)
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go n.loop(ctx)
	return n, nil
}

// loop is the benchmark's event loop: it times the mailbox wait, every
// HandleMessage and every Tick.
func (n *tracedNode) loop(ctx context.Context) {
	defer n.wg.Done()
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case q := <-n.mailbox:
			trace := traceOf(q.env.Msg)
			n.tr.record(spMailboxWait, n.idx, -1, trace, q.at, time.Now())
			i := n.tr.open(spHandle, n.idx, -1, trace)
			n.cur.Store(i)
			n.core.HandleMessage(ctx, q.env)
			n.cur.Store(-1)
			n.tr.close(i, 0)
		case <-ticker.C:
			i := n.tr.open(spTick, n.idx, -1, 0)
			n.cur.Store(i)
			n.core.Tick(ctx)
			n.cur.Store(-1)
			n.tr.close(i, 0)
		case fn := <-n.cmds:
			fn()
			continue
		case <-n.done:
			return
		}
		n.ready.Store(n.core.Slice() >= 0 && n.core.BootstrapDone())
	}
}

// do runs fn on the event loop.
func (n *tracedNode) do(fn func()) {
	ran := make(chan struct{})
	select {
	case n.cmds <- func() { fn(); close(ran) }:
		<-ran
	case <-n.done:
	}
}

// counters snapshots the core's counters on the loop.
func (n *tracedNode) counters() [metrics.NumCounters]uint64 {
	var c [metrics.NumCounters]uint64
	n.do(func() { c = n.core.Metrics().Snapshot() })
	return c
}

// stop shuts the node down; later calls do nothing (a crashed node
// stays in the cluster's list until its restart replaces it).
func (n *tracedNode) stop() {
	n.stopOnce.Do(func() {
		n.cancel()
		close(n.done)
		n.wg.Wait()
		_ = n.net.Close()
		_ = n.st.Close()
	})
}

// tracedCluster is the in-process counterpart of procCluster.
type tracedCluster struct {
	segBytes int64
	tr       *Tracer
	nodes    []*tracedNode
	before   [][metrics.NumCounters]uint64
	wireB    []uint64
}

func (c *tracedCluster) crashAndWipe(i int) error {
	c.nodes[i].stop()
	return os.RemoveAll(c.nodes[i].dir)
}

func (c *tracedCluster) restart(i int, bootstrap bool) error {
	old := c.nodes[i]
	n, err := startTracedNode(c.tr, i, old.dir, old.bind, c.nodes[0].bind, c.segBytes, bootstrap)
	if err != nil {
		return err
	}
	c.nodes[i] = n
	return nil
}

func (c *tracedCluster) ready(i int) bool { return c.nodes[i].ready.Load() }

func (c *tracedCluster) held(i int) (float64, int32, error) {
	n := c.nodes[i]
	var slice int32
	n.do(func() { slice = n.core.Slice() })
	return float64(n.st.Count()), slice, nil
}

func (c *tracedCluster) markWindow() error {
	c.snapshot()
	c.before[rejoinNode] = [metrics.NumCounters]uint64{}
	c.wireB[rejoinNode] = 0
	return nil
}

// snapshot records the window's starting counters.
func (c *tracedCluster) snapshot() {
	c.before = make([][metrics.NumCounters]uint64, len(c.nodes))
	c.wireB = make([]uint64, len(c.nodes))
	for i, n := range c.nodes {
		c.before[i] = n.counters()
		c.wireB[i] = n.wstats.Snapshot().EncodeBytes
	}
}

// delta sums a core counter's growth since snapshot.
func (c *tracedCluster) delta(ctr metrics.Counter) float64 {
	var d float64
	for i, n := range c.nodes {
		d += float64(n.counters()[ctr] - c.before[i][ctr])
	}
	return d
}

func (c *tracedCluster) wireDelta() float64 {
	var d float64
	for i, n := range c.nodes {
		d += float64(n.wstats.Snapshot().EncodeBytes - c.wireB[i])
	}
	return d
}

func (c *tracedCluster) stopAll() {
	for _, n := range c.nodes {
		n.stop()
	}
}

// segmentBytes reads -segment-bytes out of a workload's flasksd flags.
func segmentBytes(flags []string) int64 {
	for i := 0; i+1 < len(flags); i++ {
		if flags[i] == "-segment-bytes" {
			v, _ := strconv.ParseInt(flags[i+1], 10, 64)
			return v
		}
	}
	return 0
}

// traced runs the workload once more against the in-process assembly
// with every layer boundary timed, and derives the per-layer metrics.
// base is the untraced run, for the overhead and the assembly check.
func traced(root, name string, seed uint64, window time.Duration, base *Result) (*Result, error) {
	_ = os.RemoveAll(root)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(root, "data"))
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	c := &tracedCluster{segBytes: segmentBytes(w.Flags()), tr: tr}
	defer c.stopAll()
	for i := 0; i < clusterNodes; i++ {
		seedAddr := ""
		if i > 0 {
			seedAddr = c.nodes[0].bind
		}
		n, err := startTracedNode(tr, i, filepath.Join(root, "data", fmt.Sprintf("n%d", i+1)), "", seedAddr, c.segBytes, false)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := range c.nodes {
		for !c.ready(i) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("traced node %d never became ready", i+1)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var seeds []string
	for _, n := range c.nodes[:loaders()] {
		seeds = append(seeds, fmt.Sprintf("%d@%s", n.id, n.bind))
	}
	cl, err := dataflasks.ConnectClient("127.0.0.1:0", seeds, clientConfig())
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	t := &target{cl: cl, tr: tr, ctl: c, seconds: window}
	if w.RESP() {
		gcl, err := dataflasks.ConnectClient("127.0.0.1:0", seeds[:1], clientConfig())
		if err != nil {
			return nil, err
		}
		defer gcl.Close()
		gw := resp.NewServer(timedBackend{Client: gcl, tr: tr}, resp.Config{})
		addr, err := gw.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer gw.Close()
		t.respAddr = addr.String()
	}
	if err := w.Preload(t); err != nil {
		return nil, err
	}
	if name != "rejoin" {
		wt := *t
		wt.seconds = warmup
		if err := w.Run(&wt, newRecorder()); err != nil {
			return nil, err
		}
	}
	c.snapshot()
	tr.on.Store(true)
	rec := newRecorder()
	rec.start = time.Now()
	if err := w.Run(t, rec); err != nil {
		return nil, err
	}
	rec.end = time.Now()
	tr.on.Store(false)

	res := &Result{Correct: true, Attempted: rec.attempted, Failed: rec.failed}
	for _, e := range rec.errs {
		res.fail("traced run failure: %s", e)
	}
	ops := float64(max(rec.completed-rec.failed, 1))
	secs := rec.window().Seconds()
	e2e := &Result{}
	endToEndMetrics(e2e, rec, w, 0)
	for _, m := range e2e.Metrics {
		if m.Name == "ops_per_s" || m.Name == "latency_p50_ms" || m.Name == "latency_p99_ms" {
			res.add("trace."+m.Name, m.Value, m.Unit, m.N)
			if b, ok := base.get(m.Name); ok && b.Value > 0 {
				res.add("trace.overhead."+m.Name, m.Value/b.Value, "ratio", 0)
			}
		}
	}
	msgs := c.delta(metrics.MsgSent) / ops
	bytes := c.wireDelta() / ops
	var drops float64
	for _, n := range c.nodes {
		drops += float64(n.drops.Load())
	}
	res.add("trace.core.mailbox_drops", drops, "count", 0)
	res.add("trace.msgs_per_op", msgs, "msgs/op", 0)
	res.add("trace.wire_bytes_per_op", bytes, "B/op", 0)
	if rj, ok := w.(*rejoin); ok {
		res.add("trace.rejoin_s", rj.RejoinS, "s", 0)
		res.add("trace.rejoin_held_frac", rj.HeldFrac, "ratio", 0)
		res.add("trace.bootstrap.mb", c.delta(metrics.BootstrapBytes)/1e6, "MB", 0)
		res.add("trace.bootstrap.segments", c.delta(metrics.BootstrapSegments), "count", 0)
	}
	checkAgreement(res, base, "msgs_per_op", msgs)
	checkAgreement(res, base, "wire_bytes_per_op", bytes)

	spanMetrics(res, tr, ops, secs)
	if err := writeSpans(filepath.Join(root, "spans-"+name+".jsonl.gz"), tr); err != nil {
		return nil, err
	}
	return res, nil
}

// assemblyTolerance is how far the traced assembly's message and byte
// counts per operation may drift from flasksd's before the run counts
// as measuring a different program: the largest end-to-end bound.
const assemblyTolerance = 0.25

func checkAgreement(res *Result, base *Result, name string, traced float64) {
	b, ok := base.get(name)
	if !ok || b.Value == 0 {
		return
	}
	if d := traced/b.Value - 1; d > assemblyTolerance || d < -assemblyTolerance {
		res.fail("traced assembly disagrees with flasksd on %s: %.3f vs %.3f", name, traced, b.Value)
	}
}

// spanMetrics turns the recorded spans into per-layer figures.
func spanMetrics(res *Result, tr *Tracer, ops, secs float64) {
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	var durs [numSpanKinds][]float64 // µs
	var busy [numSpanKinds]float64   // µs
	var objs [numSpanKinds]float64
	childUS := make(map[int32]float64)
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		d := float64(s.End-s.Start) / 1e3
		durs[s.Kind] = append(durs[s.Kind], d)
		busy[s.Kind] += d
		objs[s.Kind] += float64(s.Objs)
		if s.Parent >= 0 {
			childUS[s.Parent] += d
		}
	}
	var selfHandle, selfSend []float64
	for i, s := range spans {
		if s.End == 0 {
			continue
		}
		d := float64(s.End-s.Start) / 1e3
		switch s.Kind {
		case spHandle:
			selfHandle = append(selfHandle, d-childUS[int32(i)])
		case spSend:
			selfSend = append(selfSend, d-childUS[int32(i)])
		}
	}
	q := func(kind int, p float64) (float64, int) {
		d := NewDist(durs[kind])
		return d.Quantile(p), d.N()
	}
	addQ := func(name string, kind int, p, scale float64, unit string) {
		v, n := q(kind, p)
		res.add(name, v*scale, unit, n)
	}
	nodeTime := float64(clusterNodes) * secs * 1e6
	storeCalls := 0.0
	storeBusy := 0.0
	for k := spStorePut; k <= spStoreScan; k++ {
		storeCalls += float64(len(durs[k]))
		storeBusy += busy[k]
	}
	addQ("client.submit.p50_us", spClientSubmit, 0.5, 1, "us")
	if len(durs[spRESPBackend]) > 0 {
		addQ("resp.backend.p50_ms", spRESPBackend, 0.5, 1e-3, "ms")
		cmd := NewDist(durs[spRESPCommand])
		back := NewDist(durs[spRESPBackend])
		res.add("resp.self.p50_us", cmd.Median()-back.Median(), "us", cmd.N())
	}
	addQ("core.handle.p50_us", spHandle, 0.5, 1, "us")
	addQ("core.handle.p99_us", spHandle, 0.99, 1, "us")
	sh := NewDist(selfHandle)
	res.add("core.handle.self_p50_us", sh.Median(), "us", sh.N())
	addQ("core.mailbox_wait.p50_us", spMailboxWait, 0.5, 1, "us")
	addQ("core.mailbox_wait.p99_us", spMailboxWait, 0.99, 1, "us")
	res.add("core.busy_share", (busy[spHandle]+busy[spTick])/nodeTime, "ratio", 0)
	addQ("wire.encode.p50_ns", spEncode, 0.5, 1e3, "ns")
	addQ("wire.decode.p50_ns", spDecode, 0.5, 1e3, "ns")
	res.add("wire.frames_per_op", float64(len(durs[spEncode]))/ops, "frames/op", 0)
	addQ("transport.send.p50_us", spSend, 0.5, 1, "us")
	addQ("transport.send.p99_us", spSend, 0.99, 1, "us")
	ss := NewDist(selfSend)
	res.add("transport.send.self_p50_us", ss.Median(), "us", ss.N())
	res.add("transport.sends_per_op", float64(len(durs[spSend]))/ops, "sends/op", 0)
	addQ("store.put.p50_us", spStorePut, 0.5, 1, "us")
	addQ("store.put.p99_us", spStorePut, 0.99, 1, "us")
	addQ("store.put_batch.p99_us", spStorePutBatch, 0.99, 1, "us")
	res.add("store.put_batch.objs_per_call", objs[spStorePutBatch]/float64(max(len(durs[spStorePutBatch]), 1)), "objs", 0)
	addQ("store.get.p50_us", spStoreGet, 0.5, 1, "us")
	addQ("store.get.p99_us", spStoreGet, 0.99, 1, "us")
	addQ("store.delete_batch.p99_us", spStoreDeleteBatch, 0.99, 1, "us")
	res.add("store.calls_per_op", storeCalls/ops, "calls/op", 0)
	res.add("store.busy_share", storeBusy/nodeTime, "ratio", 0)
	res.add("store.stream_segments.busy_ms", busy[spStoreStreamSegments]/1e3, "ms", 0)
	res.add("trace.spans", float64(len(spans)), "count", 0)
}

// writeSpans dumps every span, one JSON object a line, gzipped.
func writeSpans(path string, tr *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriterSize(zw, 1<<16)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	type out struct {
		Name   string `json:"name"`
		Node   int8   `json:"node"`
		Parent int32  `json:"parent"`
		Trace  uint64 `json:"trace,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Objs   int32  `json:"objs,omitempty"`
	}
	for _, s := range spans {
		if err := enc.Encode(out{spanNames[s.Kind], s.Node, s.Parent, s.Trace, s.Start, s.End, s.Objs}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
