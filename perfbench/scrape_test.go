package main

import (
	"os"
	"testing"

	"dataflasks/internal/obs"
)

// The fixtures are two /metrics scrapes of one flasksd node (the RESP
// gateway enabled) around 200 puts and 50 RESP SET/GET pairs.
func loadScrape(t *testing.T, name string) Scrape {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(b)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return Scrape{Fams: fams}
}

func TestWindowDeltas(t *testing.T) {
	w := Window{
		Before: []Scrape{loadScrape(t, "before.prom")},
		After:  []Scrape{loadScrape(t, "after.prom")},
	}
	for _, c := range []struct {
		name string
		want float64
	}{
		{"flasks_msg_sent_total", 679},
		{"flasks_wire_encode_bytes_total", 62421},
		{"flasks_data_sent_total", 600},
		{"flasks_no_such_family", 0},
	} {
		if got := w.Delta(c.name); got != c.want {
			t.Errorf("Delta(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	if got := w.End("flasks_store_live_bytes"); got != 4747 {
		t.Errorf("End(store_live_bytes) = %v, want 4747", got)
	}
	// The RESP families exist only in the second scrape; quantiles
	// come from the bucket growth summed over both commands.
	if got := w.HistQuantile("flasks_resp_command_duration_seconds", 0.5); got != 0.000256 {
		t.Errorf("resp p50 = %v, want 0.000256", got)
	}
	if got := w.HistQuantile("flasks_resp_command_duration_seconds", 0.99); got != 0.002048 {
		t.Errorf("resp p99 = %v, want 0.002048", got)
	}
	// Summed across nodes: the same node twice doubles every delta.
	w2 := Window{Before: append(w.Before, w.Before...), After: append(w.After, w.After...)}
	if got := w2.Delta("flasks_msg_sent_total"); got != 2*679 {
		t.Errorf("two-node Delta = %v, want %v", got, 2*679)
	}
}

func TestParseMallocs(t *testing.T) {
	body := []byte("heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 1\n# Mallocs = 17417\n# Frees = 9\n")
	got, err := parseMallocs(body)
	if err != nil || got != 17417 {
		t.Fatalf("parseMallocs = %v, %v; want 17417", got, err)
	}
	if _, err := parseMallocs([]byte("# Frees = 9\n")); err == nil {
		t.Fatal("parseMallocs accepted a profile without Mallocs")
	}
}

func TestParseKV(t *testing.T) {
	kv := parseKV([]byte("rchar: 10\nsyscr: 7\nsyscw: 5\nwrite_bytes: 4096\nVmHWM:\t  2048 kB\nName:\tflasksd\n"))
	if kv["syscr"]+kv["syscw"] != 12 || kv["write_bytes"] != 4096 || kv["VmHWM"] != 2048 {
		t.Fatalf("parseKV = %v", kv)
	}
	if _, ok := kv["Name"]; ok {
		t.Fatal("parseKV kept a non-numeric field")
	}
}
