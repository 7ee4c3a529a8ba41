package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dataflasks"
	"dataflasks/internal/slicing"
	"dataflasks/internal/workload"
)

// controller is the cluster surface the rejoin workload drives: the
// multi-process cluster in the measured run, the in-process assembly
// in the traced one.
type controller interface {
	crashAndWipe(i int) error
	restart(i int, bootstrap bool) error
	ready(i int) bool
	// held reports node i's stored object count and slice.
	held(i int) (objects float64, slice int32, err error)
	// markWindow restarts the counter window (a node's counters reset
	// when its process restarts).
	markWindow() error
}

// target is what a workload drives: a native client, the RESP
// gateway's address, and (traced run only) the tracer that stamps
// every operation.
type target struct {
	cl       *dataflasks.Client
	respAddr string
	tr       *Tracer
	ctl      controller
	seconds  time.Duration
}

// opts stamps one operation over keys with a trace id when tracing;
// it returns the id (0 untraced).
func (t *target) opts(keys ...string) (uint64, []dataflasks.OpOption) {
	if t.tr == nil {
		return 0, nil
	}
	id := t.tr.begin(keys...)
	return id, []dataflasks.OpOption{dataflasks.WithTraceID(id)}
}

// spanEnd closes the client span of a traced operation.
func (t *target) spanEnd(id uint64, start, end time.Time) {
	if t.tr != nil && id != 0 {
		t.tr.clientSpan(id, start, end)
	}
}

// Workload is one named traffic mix.
type Workload interface {
	// RESP reports whether the gateway must run on node 1.
	RESP() bool
	// Flags are extra flasksd flags for every node.
	Flags() []string
	// Preload stores the initial data set (part of set-up).
	Preload(t *target) error
	// Run drives the measured window into rec.
	Run(t *target, rec *Recorder) error
	// LiveBytes is the key+value bytes the benchmark believes are
	// live at the end, for space amplification.
	LiveBytes() int64
}

// loaders is how many load goroutines or connections run: nproc,
// as the cluster and the load process share the machine's cores.
func loaders() int { return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0))) }

// newWorkload builds a named workload. The offered rates keep the
// cluster well under saturation even when a hypervisor steals half of
// a 2-vCPU machine (as it did on the baseline's KVM guest), so the
// gated metrics measure the program's cost rather than the CPU the
// neighbours left over.
func newWorkload(name string, seed uint64) (Workload, error) {
	switch name {
	case "kv-mixed":
		return &kvMixed{seed: seed, keys: 10_000, size: 100, window: 8, rate: 1500}, nil
	case "resp-read":
		return &respRead{seed: seed, keys: 50_000, size: 1024, window: 32, rate: 2500}, nil
	case "bulk-churn":
		return &bulkChurn{lag: 32, batch: 64, size: 4096, rate: 64}, nil
	case "rejoin":
		return &rejoin{seed: seed, keys: 100_000, size: 512, window: 8, rate: 1000}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want kv-mixed, resp-read, bulk-churn or rejoin)", name)
}

// versions tracks, per key, the highest version issued and the
// highest version acknowledged, which the read checks compare against.
type versions struct {
	issued, acked []atomic.Uint64
}

func newVersions(n int) *versions {
	v := &versions{issued: make([]atomic.Uint64, n), acked: make([]atomic.Uint64, n)}
	for i := 0; i < n; i++ {
		v.issued[i].Store(1)
		v.acked[i].Store(1)
	}
	return v
}

func (v *versions) ack(k int, ver uint64) {
	for {
		cur := v.acked[k].Load()
		if ver <= cur || v.acked[k].CompareAndSwap(cur, ver) {
			return
		}
	}
}

// --- kv-mixed ---------------------------------------------------------------

// kvMixed: native client, 50% GetLatest / 50% Put of a fresh version,
// zipfian(0.99) over preloaded keys with small values.
type kvMixed struct {
	seed       uint64
	keys, size int
	window     int
	rate       float64 // offered operations per second
	vers       *versions
	ackedPuts  atomic.Int64
}

func (w *kvMixed) RESP() bool      { return false }
func (w *kvMixed) Flags() []string { return nil }

func (w *kvMixed) Preload(t *target) error {
	w.vers = newVersions(w.keys)
	return preload(t.cl, w.keys, workload.Key, w.size)
}

func (w *kvMixed) LiveBytes() int64 {
	objs := int64(w.keys) + w.ackedPuts.Load()
	return objs * int64(len(workload.Key(0))+w.size)
}

func (w *kvMixed) Run(t *target, rec *Recorder) error {
	until := time.Now().Add(t.seconds)
	rec.stop = until
	var wg sync.WaitGroup
	for g := 0; g < loaders(); g++ {
		rng := rand.New(rand.NewPCG(w.seed, uint64(g)))
		zipf := workload.NewZipfian(w.keys, 0.99)
		wg.Add(1)
		go func() {
			defer wg.Done()
			closedLoop(untilTime(until), w.window, interval(w.rate, loaders()), func(due time.Time) *pending {
				k := zipf.Next(rng)
				if rng.IntN(2) == 0 {
					return w.put(t, rec, k, due)
				}
				return w.get(t, rec, k, due)
			})
		}()
	}
	wg.Wait()
	return nil
}

func (w *kvMixed) put(t *target, rec *Recorder, k int, due time.Time) *pending {
	key := workload.Key(k)
	v := w.vers.issued[k].Add(1)
	id, opts := t.opts(key)
	rec.attempt(1)
	p := &pending{start: due}
	p.ops = []*dataflasks.Op{t.cl.PutAsync(key, v, deriveValue(key, v, w.size), opts...)}
	p.finish = func(now time.Time, p *pending) {
		t.spanEnd(id, p.start, now)
		err := opsErr(p.ops)
		if err == nil {
			w.vers.ack(k, v)
			w.ackedPuts.Add(1)
			rec.ackPut(k, v)
			rec.addRetries(p.ops[0].Retries())
		}
		rec.op("put", now.Sub(p.start), 1, w.size, err)
	}
	return p
}

func (w *kvMixed) get(t *target, rec *Recorder, k int, due time.Time) *pending {
	key := workload.Key(k)
	floor := w.vers.acked[k].Load()
	id, opts := t.opts(key)
	rec.attempt(1)
	p := &pending{start: due}
	p.ops = []*dataflasks.Op{t.cl.GetLatestAsync(key, opts...)}
	p.finish = func(now time.Time, p *pending) {
		t.spanEnd(id, p.start, now)
		op := p.ops[0]
		err := opsErr(p.ops)
		if err == nil {
			var v uint64
			v, err = checkValue(key, op.Value(), op.Version(), w.vers.issued[k].Load(), w.size)
			if err == nil {
				rec.read(v < floor)
				rec.addRetries(op.Retries())
			}
		}
		rec.op("get", now.Sub(p.start), 1, 0, err)
	}
	return p
}

// --- bulk-churn -------------------------------------------------------------

// bulkChurn: PutBatch of fresh large objects plus a whole-key
// DeleteBatch of the batch written lag batches earlier, so the live set
// stays constant while segments roll and compaction runs.
type bulkChurn struct {
	lag, batch, size int
	rate             float64      // offered batch calls per second (puts and deletes)
	next, nextDel    atomic.Int64 // next batch to put / delete
	putDone, delDone atomic.Int64 // acknowledged batches
}

func (w *bulkChurn) RESP() bool { return false }

// Flags roll 1 MiB segments so compaction completes several cycles
// per run.
func (w *bulkChurn) Flags() []string { return []string{"-segment-bytes", "1048576"} }

func (w *bulkChurn) key(b, i int) string { return workload.Key(b*w.batch + i) }

func (w *bulkChurn) Preload(t *target) error {
	w.next.Store(int64(w.lag))
	w.nextDel.Store(0)
	w.putDone.Store(int64(w.lag))
	w.delDone.Store(0)
	return preload(t.cl, w.lag*w.batch, workload.Key, w.size)
}

func (w *bulkChurn) LiveBytes() int64 {
	live := w.putDone.Load() - w.delDone.Load()
	return live * int64(w.batch) * int64(len(w.key(0, 0))+w.size)
}

func (w *bulkChurn) Run(t *target, rec *Recorder) error {
	until := time.Now().Add(t.seconds)
	rec.stop = until
	var wg sync.WaitGroup
	for g := 0; g < loaders(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			put := false
			closedLoop(untilTime(until), 2, interval(w.rate, loaders()), func(due time.Time) *pending {
				put = !put
				if put {
					return w.putBatch(t, rec, due)
				}
				return w.deleteBatch(t, rec, due)
			})
		}()
	}
	wg.Wait()
	return nil
}

func (w *bulkChurn) putBatch(t *target, rec *Recorder, due time.Time) *pending {
	b := int(w.next.Add(1) - 1)
	objs := make([]dataflasks.Object, w.batch)
	keys := make([]string, w.batch)
	for i := range objs {
		k := w.key(b, i)
		keys[i] = k
		objs[i] = dataflasks.Object{Key: k, Version: 1, Value: deriveValue(k, 1, w.size)}
	}
	id, opts := t.opts(keys...)
	rec.attempt(w.batch)
	p := &pending{start: due}
	p.ops = t.cl.PutBatchAsync(objs, opts...)
	p.finish = func(now time.Time, p *pending) {
		t.spanEnd(id, p.start, now)
		err := opsErr(p.ops)
		if err == nil {
			w.putDone.Add(1)
		}
		rec.op("batch", now.Sub(p.start), w.batch, w.batch*w.size, err)
	}
	return p
}

func (w *bulkChurn) deleteBatch(t *target, rec *Recorder, due time.Time) *pending {
	b := int(w.nextDel.Add(1) - 1)
	items := make([]dataflasks.KeyVersion, w.batch)
	keys := make([]string, w.batch)
	for i := range items {
		keys[i] = w.key(b, i)
		items[i] = dataflasks.KeyVersion{Key: keys[i], Version: dataflasks.AllVersions}
	}
	id, opts := t.opts(keys...)
	rec.attempt(w.batch)
	p := &pending{start: due}
	p.ops = t.cl.DeleteBatchAsync(items, opts...)
	p.finish = func(now time.Time, p *pending) {
		t.spanEnd(id, p.start, now)
		err := opsErr(p.ops)
		if err == nil {
			w.delDone.Add(1)
			rec.ackDelete(keys)
		}
		rec.op("batch", now.Sub(p.start), w.batch, 0, err)
	}
	return p
}

// --- rejoin -----------------------------------------------------------------

// rejoinNode is the node the rejoin workload crashes and wipes (not
// node 1, every node's seed).
const rejoinNode = clusterNodes - 1

// rejoin: preload, then crash one node, wipe its data and restart it
// with -bootstrap while one goroutine keeps reading preloaded keys.
type rejoin struct {
	seed         uint64
	keys, size   int
	window       int
	rate         float64 // offered reads per second
	RejoinS      float64
	HeldFrac     float64
	HeldObjects  float64
	SliceObjects int
}

func (w *rejoin) RESP() bool      { return false }
func (w *rejoin) Flags() []string { return nil }

func (w *rejoin) Preload(t *target) error {
	return preload(t.cl, w.keys, workload.Key, w.size)
}

func (w *rejoin) LiveBytes() int64 {
	return int64(w.keys) * int64(len(workload.Key(0))+w.size)
}

func (w *rejoin) Run(t *target, rec *Recorder) error {
	var stop atomic.Bool
	done := make(chan struct{})
	rng := rand.New(rand.NewPCG(w.seed, 1))
	go func() {
		defer close(done)
		closedLoop(func() bool { return !stop.Load() }, w.window, interval(w.rate, 1), func(due time.Time) *pending {
			k := rng.IntN(w.keys)
			key := workload.Key(k)
			id, opts := t.opts(key)
			rec.attempt(1)
			p := &pending{start: due}
			p.ops = []*dataflasks.Op{t.cl.GetLatestAsync(key, opts...)}
			p.finish = func(now time.Time, p *pending) {
				t.spanEnd(id, p.start, now)
				op := p.ops[0]
				err := opsErr(p.ops)
				if err == nil {
					_, err = checkValue(key, op.Value(), op.Version(), 1, w.size)
					if err == nil {
						rec.read(false)
						rec.addRetries(op.Retries())
					}
				}
				rec.op("get", now.Sub(p.start), 1, 0, err)
			}
			return p
		})
	}()
	defer func() { stop.Store(true); <-done }()

	if err := t.ctl.crashAndWipe(rejoinNode); err != nil {
		return err
	}
	if err := t.ctl.restart(rejoinNode, true); err != nil {
		return err
	}
	restarted := time.Now()
	if err := t.ctl.markWindow(); err != nil {
		return err
	}
	rec.mu.Lock()
	rec.start = restarted
	rec.mu.Unlock()
	for !t.ctl.ready(rejoinNode) {
		if time.Since(restarted) > 100*time.Second {
			return fmt.Errorf("rejoin: node %d not ready after 100s", rejoinNode+1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.RejoinS = time.Since(restarted).Seconds()
	objs, slice, err := t.ctl.held(rejoinNode)
	if err != nil {
		return err
	}
	w.HeldObjects = objs
	w.SliceObjects = 0
	for k := 0; k < w.keys; k++ {
		if slicing.KeySlice(workload.Key(k), clusterSlice) == slice {
			w.SliceObjects++
		}
	}
	if w.SliceObjects > 0 {
		w.HeldFrac = objs / float64(w.SliceObjects)
	}
	if rest := t.seconds - time.Since(restarted); rest > 0 {
		time.Sleep(rest)
	}
	rec.stop = time.Now()
	return nil
}
