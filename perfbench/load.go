package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"dataflasks"
)

// Recorder collects one window's outcomes: latencies by class, counts,
// failures, and the acknowledged writes the post-run checks replay.
type Recorder struct {
	mu        sync.Mutex
	lat       map[string][]sample // successful operations, by class
	attempted int64
	completed int64 // operations that finished (ok or failed)
	failed    int64
	errs      []string // first few failures, for the report
	gets      int64
	stale     int64
	userBytes int64 // acknowledged written value bytes
	retries   int64
	acked     []keyVersion // acknowledged puts (kv-mixed)
	deleted   []string     // acknowledged whole-key deletes (bulk-churn)
	start     time.Time    // the window opens
	stop      time.Time    // the load stops issuing
	end       time.Time    // the last operation finished
}

type keyVersion struct {
	key     int
	version uint64
}

// sample is one successful operation: when it completed, how long it
// took, and how many objects it carried.
type sample struct {
	at   time.Time
	lat  time.Duration
	objs int
}

func newRecorder() *Recorder { return &Recorder{lat: map[string][]sample{}} }

// op records one finished operation of class cls covering objs
// objects (1 except for batches); err != nil counts them as failed.
func (r *Recorder) op(cls string, lat time.Duration, objs int, bytes int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.completed += int64(objs)
	if err != nil {
		r.failed += int64(objs)
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
		return
	}
	r.lat[cls] = append(r.lat[cls], sample{time.Now(), lat, objs})
	r.userBytes += int64(bytes)
}

func (r *Recorder) attempt(objs int) { atomic.AddInt64(&r.attempted, int64(objs)) }

// fail counts a failure found after the window (lost acknowledged
// writes) against the window's attempts.
func (r *Recorder) fail(n int64, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
	if n > 0 && len(r.errs) < 5 {
		r.errs = append(r.errs, why)
	}
}

func (r *Recorder) read(stale bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gets++
	if stale {
		r.stale++
	}
}

func (r *Recorder) ackPut(k int, v uint64) {
	r.mu.Lock()
	r.acked = append(r.acked, keyVersion{k, v})
	r.mu.Unlock()
}

func (r *Recorder) ackDelete(keys []string) {
	r.mu.Lock()
	r.deleted = append(r.deleted, keys...)
	r.mu.Unlock()
}

func (r *Recorder) addRetries(n int) { atomic.AddInt64(&r.retries, int64(n)) }

// all merges every latency class.
func (r *Recorder) all() []sample {
	var out []sample
	for _, ls := range r.lat {
		out = append(out, ls...)
	}
	return out
}

func (r *Recorder) window() time.Duration { return r.end.Sub(r.start) }

// pending is one logical operation in flight: one or more futures (a
// batch splits into one per target slice) and what to do once every
// one of them is done.
type pending struct {
	ops    []*dataflasks.Op
	start  time.Time
	finish func(now time.Time, p *pending)
}

// closedLoop drives one goroutine's operations while keepGoing holds.
// Operations fall due every interval (the goroutine's share of the
// workload's offered rate) and at most window of them are in flight:
// a due operation waits for a free slot, and its latency is timed from
// when it fell due, so a stall also counts against the operations it
// held back. Each completion is observed the moment its future closes.
// Operations still in flight when keepGoing turns false are waited
// for, up to a grace period after which they finish as failures.
func closedLoop(keepGoing func() bool, window int, interval time.Duration, issue func(due time.Time) *pending) {
	const grace = 15 * time.Second
	type slot struct {
		p    *pending
		left []*dataflasks.Op // futures not yet done
	}
	var inflight []slot
	var graceC <-chan time.Time
	next := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	type ref struct{ s, o int }
	for {
		going := keepGoing()
		for going && len(inflight) < window && !time.Now().Before(next) {
			p := issue(next)
			inflight = append(inflight, slot{p, append([]*dataflasks.Op(nil), p.ops...)})
			next = next.Add(interval)
		}
		if !going {
			if len(inflight) == 0 {
				return
			}
			if graceC == nil {
				graceC = time.After(grace)
			}
		}
		cases := make([]reflect.SelectCase, 0, 2*window+2)
		refs := make([]ref, 0, 2*window)
		for si, sl := range inflight {
			for oi, o := range sl.left {
				if o != nil {
					cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(o.Done())})
					refs = append(refs, ref{si, oi})
				}
			}
		}
		// The next due time, when a slot is free to take it.
		var wake <-chan time.Time
		if going && len(inflight) < window {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(next))
			wake = timer.C
		}
		cases = append(cases,
			reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(wake)},
			reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(graceC)})
		chosen, _, _ := reflect.Select(cases)
		now := time.Now()
		switch chosen {
		case len(cases) - 2:
			continue
		case len(cases) - 1:
			for _, sl := range inflight {
				sl.p.finish(now, sl.p)
			}
			return
		}
		rf := refs[chosen]
		sl := inflight[rf.s]
		sl.left[rf.o] = nil
		if allNil(sl.left) {
			sl.p.finish(now, sl.p)
			inflight = append(inflight[:rf.s], inflight[rf.s+1:]...)
		}
	}
}

// interval is one goroutine's spacing between due operations when
// the workload offers rate operations per second across loaders()
// goroutines.
func interval(rate float64, goroutines int) time.Duration {
	return time.Duration(float64(goroutines) / rate * float64(time.Second))
}

func allNil(ops []*dataflasks.Op) bool {
	for _, o := range ops {
		if o != nil {
			return false
		}
	}
	return true
}

// untilTime is a keepGoing predicate for a fixed deadline.
func untilTime(t time.Time) func() bool {
	return func() bool { return time.Now().Before(t) }
}

// opsErr returns the first error among finished futures (an op still
// in flight counts as a timeout).
func opsErr(ops []*dataflasks.Op) error {
	for _, o := range ops {
		if err := o.Err(); err != nil {
			if err == dataflasks.ErrInFlight {
				return fmt.Errorf("operation still in flight after the window")
			}
			return err
		}
	}
	return nil
}

// preload stores version 1 of objects keyFn(0..n-1) with sz-byte
// derived values, in batches, keeping a few batches in flight from
// the calling goroutine.
func preload(cl *dataflasks.Client, n int, keyFn func(int) string, sz int, opts ...dataflasks.OpOption) error {
	const batch, inflight = 256, 8
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var queue []*dataflasks.Op
	wait := func(o *dataflasks.Op) error {
		if err := o.Wait(ctx); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		return nil
	}
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		objs := make([]dataflasks.Object, 0, hi-lo)
		for i := lo; i < hi; i++ {
			k := keyFn(i)
			objs = append(objs, dataflasks.Object{Key: k, Version: 1, Value: deriveValue(k, 1, sz)})
		}
		queue = append(queue, cl.PutBatchAsync(objs, opts...)...)
		for len(queue) > inflight*clusterSlice {
			if err := wait(queue[0]); err != nil {
				return err
			}
			queue = queue[1:]
		}
	}
	for _, o := range queue {
		if err := wait(o); err != nil {
			return err
		}
	}
	return nil
}
