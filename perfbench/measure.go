package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dataflasks"
)

// procController adapts the multi-process cluster to the rejoin
// workload.
type procController struct {
	c   *procCluster
	win *Window
}

func (p *procController) crashAndWipe(i int) error {
	n := p.c.nodes[i]
	n.kill()
	return os.RemoveAll(n.dir)
}

func (p *procController) restart(i int, bootstrap bool) error {
	old := p.c.nodes[i]
	var flags []string
	if bootstrap {
		flags = append(flags, "-bootstrap")
	}
	n, err := p.c.spawn(old.id, old.bind, old.httpAddr, false, flags...)
	if err != nil {
		return err
	}
	p.c.mu.Lock()
	p.c.nodes[i] = n
	p.c.mu.Unlock()
	return nil
}

func (p *procController) ready(i int) bool { return p.c.nodes[i].ready() }

func (p *procController) held(i int) (float64, int32, error) {
	fams, err := scrapeMetrics(p.c.nodes[i].httpAddr)
	if err != nil {
		return 0, 0, err
	}
	return value(fams, "flasks_stored_objects"), int32(value(fams, "flasks_slice")), nil
}

// markWindow restarts the window at a restart: the restarted node's
// counters begin at zero, the others' at their current values.
func (p *procController) markWindow() error {
	before, err := p.c.scrape()
	if err != nil {
		return err
	}
	before[rejoinNode] = Scrape{}
	p.win.Before = before
	return nil
}

// measure runs one workload against flasksd processes: reps set-ups
// (the last one kept), a warm-up, the measured window, the post-run
// checks, and the metrics.
func measure(bin, root, name string, seed uint64, window time.Duration, reps int) (*Result, error) {
	res := &Result{Correct: true}
	var (
		setups   []float64 // first spawn until every node is ready
		preloads []float64
		c        *procCluster
		cl       *dataflasks.Client
		w        Workload
	)
	defer func() {
		if cl != nil {
			cl.Close()
		}
		if c != nil {
			c.destroy()
		}
	}()
	for rep := 0; rep < reps; rep++ {
		dir := filepath.Join(root, fmt.Sprintf("%s-%d", name, rep))
		_ = os.RemoveAll(dir)
		w, _ = newWorkload(name, seed)
		start := time.Now()
		var err error
		c, err = bootCluster(bin, dir, w.RESP(), w.Flags())
		if err != nil {
			return nil, err
		}
		cl, err = dataflasks.ConnectClient("127.0.0.1:0", c.seeds(loaders()), clientConfig())
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		loadStart := time.Now()
		if err := w.Preload(&target{cl: cl}); err != nil {
			return nil, err
		}
		preloads = append(preloads, time.Since(loadStart).Seconds())
		if rep < reps-1 {
			cl.Close()
			c.destroy()
			cl, c = nil, nil
		}
	}
	res.add("setup_s", median(setups), "s", 0)
	res.add("preload_s", median(preloads), "s", 0)
	res.Notes = append(res.Notes, fmt.Sprintf("set-ups: ready after %.3f s, preloaded in %.3f s", setups, preloads))

	t := &target{cl: cl, respAddr: c.nodes[0].respAddr, seconds: window}
	warm := newRecorder()
	if name != "rejoin" {
		wt := *t
		wt.seconds = warmup
		if err := w.Run(&wt, warm); err != nil {
			return nil, err
		}
	}
	var win Window
	t.ctl = &procController{c: c, win: &win}
	var err error
	if win.Before, err = c.scrape(); err != nil {
		return nil, err
	}
	drops0 := cl.MailboxDropped()
	rec := newRecorder()
	rss := startRSSSampler(c.pids, 100*time.Millisecond)
	steal0 := cpuSteal()
	rec.start = time.Now()
	err = w.Run(t, rec)
	rec.end = time.Now()
	rss.Stop()
	if err != nil {
		return nil, err
	}
	res.add("host.steal_share", float64(cpuSteal()-steal0)/float64(rec.window())/float64(runtime.NumCPU()), "ratio", 0)
	if win.After, err = c.scrape(); err != nil {
		return nil, err
	}
	clientDrops := cl.MailboxDropped() - drops0

	var disk int64
	for _, n := range c.nodes {
		disk += dirBytes(n.dir)
	}
	spaceAmp := float64(disk) / float64(w.LiveBytes()*int64(clusterNodes/clusterSlice))

	res.Attempted, res.Failed = rec.attempted, rec.failed
	switch name {
	case "kv-mixed":
		acked := append(warm.acked, rec.acked...)
		lost, err := lostAckedPuts(c, acked)
		if err != nil {
			return nil, err
		}
		res.add("lost_acked_puts", float64(lost), "count", 0)
		rec.fail(lost, fmt.Sprintf("%d acknowledged puts missing from every replica after kill -9", lost))
		res.Failed = rec.failed
	case "bulk-churn":
		back, err := resurrected(c, append(warm.deleted, rec.deleted...))
		if err != nil {
			return nil, err
		}
		res.add("antientropy.resurrected", float64(back), "count", 0)
	}
	for _, e := range rec.errs {
		res.Notes = append(res.Notes, "failure: "+e)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.add("rss_mb", rss.median(rec.start, rec.stop)/1024, "MB", 0)
	endToEndMetrics(res, rec, w, spaceAmp)
	counterMetrics(res, rec, &win, clientDrops)
	return res, nil
}

// endToEndMetrics derives the user-visible figures from the recorder.
// Only operations that completed before the load stopped count:
// ops_per_s divides them by the time the load ran, and latency
// percentiles are medians over slices of that time (see sliceWindow);
// the sample count beside a percentile is the window's.
func endToEndMetrics(res *Result, rec *Recorder, w Workload, spaceAmp float64) {
	all := rec.all()
	var rates []float64
	for _, sl := range sliceWindow(all, rec.start, rec.stop, 1) {
		rates = append(rates, objs(sl))
	}
	done := 0.0
	for _, s := range all {
		if !s.at.Before(rec.start) && s.at.Before(rec.stop) {
			done += float64(s.objs)
		}
	}
	res.add("ops_per_s", done/rec.stop.Sub(rec.start).Seconds(), "ops/s", 0)
	res.Notes = append(res.Notes, fmt.Sprintf("ops per one-second slice: %.0f", rates))
	lat := sliceWindow(all, rec.start, rec.stop, minSliceSamples)
	res.add("latency_p50_ms", sliceLatency(lat, 0.5), "ms", len(all))
	res.add("latency_p99_ms", sliceLatency(lat, 0.99), "ms", len(all))
	if !Enough(len(all), 0.99) {
		res.fail("only %d latency samples: fewer than %d beyond p99", len(all), minBeyond)
	}
	for _, cls := range []string{"put", "get", "batch"} {
		ss := rec.lat[cls]
		if len(ss) == 0 {
			continue
		}
		sl := sliceWindow(ss, rec.start, rec.stop, minSliceSamples)
		res.add(cls+"_p50_ms", sliceLatency(sl, 0.5), "ms", len(ss))
		if Enough(len(ss), 0.99) {
			res.add(cls+"_p99_ms", sliceLatency(sl, 0.99), "ms", len(ss))
		} else {
			res.Notes = append(res.Notes, fmt.Sprintf("%s_p99_ms omitted: %d samples leave fewer than %d beyond p99", cls, len(ss), minBeyond))
		}
	}
	res.add("user_mb_per_s", float64(rec.userBytes)/1e6/rec.window().Seconds(), "MB/s", 0)
	res.add("error_rate", float64(rec.failed)/float64(max(rec.attempted, 1)), "ratio", 0)
	res.add("stale_read_frac", float64(rec.stale)/float64(max(rec.gets, 1)), "ratio", int(rec.gets))
	res.add("space_amp", spaceAmp, "ratio", 0)
	if rj, isRejoin := w.(*rejoin); isRejoin {
		res.add("rejoin_s", rj.RejoinS, "s", 0)
		res.add("rejoin_held_frac", rj.HeldFrac, "ratio", 0)
		res.add("rejoin_held_objects", rj.HeldObjects, "count", 0)
		res.add("rejoin_slice_objects", float64(rj.SliceObjects), "count", 0)
	}
}

// counterMetrics derives the per-layer figures from the node counters
// scraped around the window.
func counterMetrics(res *Result, rec *Recorder, win *Window, clientDrops uint64) {
	secs := rec.window().Seconds()
	ops := float64(max(rec.completed-rec.failed, 1))
	perNodeS := float64(clusterNodes) * secs
	dataSent := win.Delta("flasks_data_sent_total")
	res.add("peak_rss_mb", sumHWM(win)/1024, "MB", 0)
	res.add("cpu_us_per_op", win.ProcDelta(func(p ProcStats) float64 { return float64(p.CPU) })/float64(time.Microsecond)/ops, "us", 0)

	res.add("client.retries_per_kop", float64(rec.retries)/ops*1000, "1/kop", 0)
	res.add("client.mailbox_drops", float64(clientDrops), "count", 0)
	res.add("resp.cmd.p50_ms", win.HistQuantile("flasks_resp_command_duration_seconds", 0.5)*1000, "ms", 0)
	res.add("resp.cmd.p99_ms", win.HistQuantile("flasks_resp_command_duration_seconds", 0.99)*1000, "ms", 0)
	res.add("msgs_per_op", win.Delta("flasks_msg_sent_total")/ops, "msgs/op", 0)
	res.add("core.data_msgs_per_op", dataSent/ops, "msgs/op", 0)
	res.add("core.relays_per_op", win.Delta("flasks_requests_relayed_total")/ops, "relays/op", 0)
	res.add("core.dup_ratio", win.Delta("flasks_duplicates_suppressed_total")/max(dataSent, 1), "ratio", 0)
	res.add("core.coalesced_share", win.Delta("flasks_coalesced_puts_total")/max(win.Delta("flasks_puts_served_total"), 1), "ratio", 0)
	nodeDrops, shardDrops := win.Delta("flasks_mailbox_dropped_total"), win.Delta("flasks_shard_mailbox_dropped_total")
	res.add("core.node_mailbox_drops", nodeDrops, "count", 0)
	res.add("core.shard_mailbox_drops", shardDrops, "count", 0)
	res.add("core.mailbox_drops", nodeDrops+shardDrops+win.Delta("flasks_msg_dropped_total"), "count", 0)
	res.add("core.tick.p99_ms", win.HistQuantile("flasks_tick_duration_seconds", 0.99)*1000, "ms", 0)
	res.add("wire_bytes_per_op", win.Delta("flasks_wire_encode_bytes_total")/ops, "B/op", 0)
	res.add("transport.send_errors", win.Delta("flasks_transport_send_errors_total"), "count", 0)
	res.add("store.live_mb", win.End("flasks_store_live_bytes")/1e6, "MB", 0)
	res.add("store.dead_mb", win.End("flasks_store_dead_bytes")/1e6, "MB", 0)
	res.add("store.segments", win.End("flasks_store_segments"), "count", 0)
	res.add("store.compactions", win.Delta("flasks_store_compaction_passes_total"), "count", 0)
	res.add("antientropy.digest_kb_per_s", win.Delta("flasks_antientropy_digest_bytes_total")/1e3/secs, "kB/s", 0)
	res.add("antientropy.push_kb_per_s", win.Delta("flasks_antientropy_push_bytes_total")/1e3/secs, "kB/s", 0)
	res.add("antientropy.pushed_objects", win.Delta("flasks_antientropy_pushed_objects_total"), "count", 0)
	res.add("bootstrap.mb", win.Delta("flasks_bootstrap_bytes_total")/1e6, "MB", 0)
	res.add("bootstrap.segments", win.Delta("flasks_bootstrap_segments_total"), "count", 0)
	res.add("bootstrap.fell_back", win.End("flasks_bootstrap_fell_back"), "count", 0)
	res.add("bootstrap.fallback_objects", win.Delta("flasks_bootstrap_fallback_objects_total"), "count", 0)
	res.add("pss.msgs_per_node_s", win.Delta("flasks_pss_sent_total")/perNodeS, "msgs/s", 0)
	res.add("slicing.msgs_per_node_s", win.Delta("flasks_slice_sent_total")/perNodeS, "msgs/s", 0)
	res.add("aggregate.msgs_per_node_s", win.Delta("flasks_aggregate_sent_total")/perNodeS, "msgs/s", 0)
	res.add("flasksd.allocs_per_op", win.MallocDelta()/ops, "allocs/op", 0)
	res.add("flasksd.syscalls_per_op", win.ProcDelta(func(p ProcStats) float64 { return p.Syscalls })/ops, "calls/op", 0)
	written := win.ProcDelta(func(p ProcStats) float64 { return p.WriteBytes })
	res.add("flasksd.disk_write_mb", written/1e6, "MB", 0)
	if rec.userBytes > 0 {
		res.add("flasksd.disk_write_bytes_per_user_byte", written/float64(rec.userBytes), "ratio", 0)
	}
}

// sumHWM adds the nodes' peak resident sets in kB.
func sumHWM(win *Window) float64 {
	var s float64
	for _, a := range win.After {
		s += a.Proc.VmHWMKB
	}
	return s
}
