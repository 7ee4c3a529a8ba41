package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestDeriveValueDeterministic(t *testing.T) {
	a := deriveValue("user00000007", 3, 100)
	if !bytes.Equal(a, deriveValue("user00000007", 3, 100)) {
		t.Fatal("derivation is not deterministic")
	}
	if bytes.Equal(a, deriveValue("user00000007", 4, 100)) || bytes.Equal(a, deriveValue("user00000008", 3, 100)) {
		t.Fatal("different (key, version) pairs derive equal values")
	}
	if len(deriveValue("k", 1, 4096)) != 4096 || len(deriveValue("k", 1, 1)) != valueHeader {
		t.Fatal("derived value has the wrong length")
	}
}

func TestCheckValue(t *testing.T) {
	const key, size = "user00000042", 100
	good := deriveValue(key, 5, size)
	if v, err := checkValue(key, good, 5, 9, size); err != nil || v != 5 {
		t.Fatalf("good value: v%d, %v", v, err)
	}
	// RESP GET reports no version: the header names it.
	if v, err := checkValue(key, good, 0, 9, size); err != nil || v != 5 {
		t.Fatalf("good value without a reported version: v%d, %v", v, err)
	}
	flipped := append([]byte(nil), good...)
	flipped[size-1] ^= 1
	swapped := deriveValue("user00000043", 5, size)
	for name, c := range map[string]struct {
		val          []byte
		want, issued uint64
		msg          string
	}{
		"wrong bytes":       {flipped, 5, 9, "differ"},
		"other key's value": {swapped, 5, 9, "differ"},
		"never written":     {deriveValue(key, 12, size), 12, 9, "never written"},
		"version zero":      {deriveValue(key, 0, size), 0, 9, "never written"},
		"store disagrees":   {good, 6, 9, "store reported"},
		"truncated":         {good[:size-1], 5, 9, "bytes, want"},
	} {
		if _, err := checkValue(key, c.val, c.want, c.issued, size); err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, c.msg)
		}
	}
}
