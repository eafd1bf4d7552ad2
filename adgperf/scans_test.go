package main

import (
	"math/rand"
	"testing"
)

// Every statement kind is re-checked equally often, and the checks spread
// over the whole window rather than bunching at its start.
func TestOracleSamplesEveryKindAcrossWindow(t *testing.T) {
	for _, ws := range workloads {
		planned := int(30 * ws.ScanRate)
		stride := oracleStride(planned)
		var perKind [numScanKinds]int
		last := -1
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < planned; i++ {
			kind, _, _ := scanStatement(i, rng)
			if oracleSampled(i, stride) {
				perKind[kind]++
				last = i
			}
		}
		for kind, n := range perKind {
			if n != oracleCycles {
				t.Errorf("%s: %s checked %d times, want %d", ws.Name, kindNames[kind], n, oracleCycles)
			}
		}
		if tail := planned - last; tail > stride*numScanKinds {
			t.Errorf("%s: last check at scan %d of %d leaves the window's end unchecked", ws.Name, last, planned)
		}
	}
}

// A window shorter than oracleCycles cycles checks every scan.
func TestOracleSamplesShortWindowFully(t *testing.T) {
	stride := oracleStride(5)
	for i := 0; i < 5; i++ {
		if !oracleSampled(i, stride) {
			t.Errorf("scan %d of a 5-scan window not checked", i)
		}
	}
}
