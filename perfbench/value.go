package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// valueHeader is the prefix every benchmark value carries: the
// version it was written under, so a reader that learns only the bytes
// (a RESP GET) can still name the (key, version) they must match.
const valueHeader = 8

// deriveValue fills a size-byte value for (key, version): the version
// in little endian, then a splitmix64 stream seeded from both. Every
// read is checked against it, so a wrong, torn or swapped value shows.
func deriveValue(key string, version uint64, size int) []byte {
	if size < valueHeader {
		size = valueHeader
	}
	out := make([]byte, size)
	binary.LittleEndian.PutUint64(out, version)
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64() ^ (version * 0x9e3779b97f4a7c15)
	for i := valueHeader; i < size; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], z)
		copy(out[i:], w[:])
	}
	return out
}

// checkValue verifies val against the derivation. want is the version
// the store reported (0 when the surface reports none, as RESP GET
// does); issued is the highest version the benchmark ever issued for
// key, so a version beyond it was never written. It returns the
// version read.
func checkValue(key string, val []byte, want, issued uint64, size int) (uint64, error) {
	if len(val) != size {
		return 0, fmt.Errorf("%s: %d bytes, want %d", key, len(val), size)
	}
	v := binary.LittleEndian.Uint64(val)
	if want != 0 && v != want {
		return v, fmt.Errorf("%s: value carries v%d, store reported v%d", key, v, want)
	}
	if v == 0 || v > issued {
		return v, fmt.Errorf("%s: v%d was never written (issued up to v%d)", key, v, issued)
	}
	if !bytes.Equal(val, deriveValue(key, v, size)) {
		return v, fmt.Errorf("%s: v%d bytes differ from the derived value", key, v)
	}
	return v, nil
}
