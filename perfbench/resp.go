package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dataflasks/internal/workload"
)

// respRead: the RESP gateway on node 1, pipelined over nproc
// connections; 95% GET / 5% SET, uniform over preloaded keys with
// 1 KiB values. Each connection SETs only its own share of the keys,
// so the gateway's per-connection ordering makes the minted versions
// follow the benchmark's.
type respRead struct {
	seed       uint64
	keys, size int
	window     int
	rate       float64 // offered commands per second
	vers       *versions
	sets       atomic.Int64 // acknowledged SETs
}

func (w *respRead) RESP() bool      { return true }
func (w *respRead) Flags() []string { return nil }

func (w *respRead) Preload(t *target) error {
	w.vers = newVersions(w.keys)
	return preload(t.cl, w.keys, workload.Key, w.size)
}

func (w *respRead) LiveBytes() int64 {
	return (int64(w.keys) + w.sets.Load()) * int64(len(workload.Key(0))+w.size)
}

// respCmd is one pipelined command awaiting its reply.
type respCmd struct {
	set   bool
	k     int
	v     uint64 // SET: version written; GET: acknowledged floor at issue
	start time.Time
}

func (w *respRead) Run(t *target, rec *Recorder) error {
	until := time.Now().Add(t.seconds)
	rec.stop = until
	n := loaders()
	conns := make([]net.Conn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for c := 0; c < n; c++ {
		conn, err := net.Dial("tcp", t.respAddr)
		if err != nil {
			return fmt.Errorf("resp dial: %w", err)
		}
		conns = append(conns, conn)
	}
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for c, conn := range conns {
		rng := rand.New(rand.NewPCG(w.seed, uint64(c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- w.drive(t, rec, conn, rng, c, n, until)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive runs one connection: the writer keeps window commands in
// flight, the reader matches replies in order.
func (w *respRead) drive(t *target, rec *Recorder, conn net.Conn, rng *rand.Rand, c, n int, until time.Time) error {
	queue := make(chan respCmd, w.window) // the pipeline window itself
	readErr := make(chan error, 1)
	go func() {
		readErr <- w.readReplies(t, rec, bufio.NewReaderSize(conn, 64<<10), queue)
	}()
	bw := bufio.NewWriterSize(conn, 64<<10)
	var werr error
	gap := interval(w.rate, n)
	next := time.Now()
	for werr == nil && time.Now().Before(until) {
		if wait := time.Until(next); wait > 0 {
			// Nothing due: push what is buffered, then sleep.
			if werr = bw.Flush(); werr != nil {
				break
			}
			time.Sleep(wait)
			continue
		}
		k := rng.IntN(w.keys)
		cmd := respCmd{k: k, start: next}
		next = next.Add(gap)
		if rng.IntN(100) < 5 {
			if k = k - k%n + c; k >= w.keys {
				k -= n
			}
			cmd.set, cmd.k = true, k
			cmd.v = w.vers.issued[k].Add(1)
		} else {
			cmd.v = w.vers.acked[k].Load()
		}
		key := workload.Key(cmd.k)
		select {
		case queue <- cmd:
		default:
			// Window full: push what is buffered, then wait for a slot.
			if werr = bw.Flush(); werr != nil {
				break
			}
			queue <- cmd
		}
		if werr != nil {
			break
		}
		rec.attempt(1)
		if cmd.set {
			writeCommand(bw, "SET", key, string(deriveValue(key, cmd.v, w.size)))
		} else {
			writeCommand(bw, "GET", key)
		}
	}
	if err := bw.Flush(); werr == nil {
		werr = err
	}
	close(queue)
	if err := <-readErr; werr == nil {
		werr = err
	}
	return werr
}

// readReplies consumes one reply per queued command, in order.
func (w *respRead) readReplies(t *target, rec *Recorder, br *bufio.Reader, queue <-chan respCmd) error {
	for cmd := range queue {
		reply, isNull, err := readReply(br)
		now := time.Now()
		if err != nil {
			rec.op("get", 0, 1, 0, fmt.Errorf("resp read: %w", err))
			for range queue {
				rec.op("get", 0, 1, 0, fmt.Errorf("resp read: %w", err))
			}
			return nil
		}
		key := workload.Key(cmd.k)
		if t.tr != nil {
			t.tr.respCommand(cmd.start, now)
		}
		if cmd.set {
			if string(reply) != "OK" {
				err = fmt.Errorf("SET %s: reply %q", key, reply)
			} else {
				w.vers.ack(cmd.k, cmd.v)
				w.sets.Add(1)
			}
			rec.op("put", now.Sub(cmd.start), 1, w.size, err)
			continue
		}
		if isNull {
			err = fmt.Errorf("GET %s: null reply for a preloaded key", key)
		} else {
			var v uint64
			v, err = checkValue(key, reply, 0, w.vers.issued[cmd.k].Load(), w.size)
			if err == nil {
				rec.read(v < cmd.v)
			}
		}
		rec.op("get", now.Sub(cmd.start), 1, 0, err)
	}
	return nil
}

// writeCommand appends one RESP multibulk command.
func writeCommand(bw *bufio.Writer, args ...string) {
	bw.WriteString("*" + strconv.Itoa(len(args)) + "\r\n")
	for _, a := range args {
		bw.WriteString("$" + strconv.Itoa(len(a)) + "\r\n")
		bw.WriteString(a)
		bw.WriteString("\r\n")
	}
}

// readReply reads one simple-string, error or bulk reply.
func readReply(br *bufio.Reader) (data []byte, isNull bool, err error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, false, err
	}
	if len(line) < 3 {
		return nil, false, errors.New("short reply line")
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+':
		return []byte(body), false, nil
	case '-':
		return nil, false, fmt.Errorf("error reply: %s", body)
	case '$':
		n, err := strconv.Atoi(body)
		if err != nil {
			return nil, false, err
		}
		if n < 0 {
			return nil, true, nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, false, err
		}
		return buf[:n], false, nil
	}
	return nil, false, fmt.Errorf("unexpected reply type %q", line[0])
}
