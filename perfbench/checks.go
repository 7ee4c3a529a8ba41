package main

import (
	"fmt"

	"dataflasks/internal/store"
	"dataflasks/internal/workload"
)

// openStores reopens every node's data directory offline (the nodes
// must be dead) with the log engine, as a restart would replay it.
func openStores(c *procCluster) ([]*store.Log, func(), error) {
	var logs []*store.Log
	closeAll := func() {
		for _, l := range logs {
			_ = l.Close()
		}
	}
	for _, n := range c.nodes {
		l, err := store.OpenLog(n.dir, store.LogOptions{CompactLiveRatio: -1})
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("reopen node %d store: %w", n.id, err)
		}
		logs = append(logs, l)
	}
	return logs, closeAll, nil
}

// lostAckedPuts kill -9s every node, replays each data directory and
// counts acknowledged puts that no replica holds.
func lostAckedPuts(c *procCluster, acked []keyVersion) (int64, error) {
	c.killAllNodes()
	logs, closeAll, err := openStores(c)
	if err != nil {
		return 0, err
	}
	defer closeAll()
	var lost int64
	for _, kv := range acked {
		found := false
		for _, l := range logs {
			if _, _, ok, err := l.Get(workload.Key(kv.key), kv.version); err == nil && ok {
				found = true
				break
			}
		}
		if !found {
			lost++
		}
	}
	return lost, nil
}

// resurrected kill -9s every node and counts keys whose whole-key
// delete was acknowledged but which some replica still holds.
func resurrected(c *procCluster, deleted []string) (int64, error) {
	c.killAllNodes()
	logs, closeAll, err := openStores(c)
	if err != nil {
		return 0, err
	}
	defer closeAll()
	var n int64
	for _, key := range deleted {
		for _, l := range logs {
			if vs, err := l.Versions(key); err == nil && len(vs) > 0 {
				n++
				break
			}
		}
	}
	return n, nil
}
