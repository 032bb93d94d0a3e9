package hw

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// refKey is the reference configuration-key formatter, kept in its
// original fmt-based form: AppendKey, Key and Machine.ConfigKey must
// produce exactly these bytes, because the keys appear in event logs,
// ledgers and digests.
func refKey(c Configuration, threadsPerCore int) string {
	var b strings.Builder
	for _, a := range c.Threads {
		if a {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteByte('/')
	for core, f := range c.CoreMHz {
		if core > 0 {
			b.WriteByte(',')
		}
		if c.CoreActive(core, threadsPerCore) {
			fmt.Fprintf(&b, "%d", f)
		} else {
			b.WriteByte('-')
		}
	}
	fmt.Fprintf(&b, "/%d", c.UncoreMHz)
	return b.String()
}

// fuzzClock maps one input byte to a clock in [1000, 3550] MHz, a range
// that straddles every platform limit, so decoded configurations are
// valid and invalid in roughly equal measure.
func fuzzClock(b byte) int { return 1000 + 10*int(b) }

// decodeConfig turns fuzz bytes into one Haswell-EP socket configuration:
// byte 0 perturbs the slot counts (0 keeps the topology's), bytes 1–3 are
// the thread bits, bytes 4–15 the core clocks, byte 16 the uncore clock.
// Missing bytes read as zero.
func decodeConfig(topo Topology, data []byte) Configuration {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	threads, cores := topo.ThreadsPerSocket(), topo.CoresPerSocket
	if shape := at(0); shape != 0 {
		threads += int(shape&0x0f) - 8
		cores += int(shape>>4) - 8
		threads, cores = max(threads, 0), max(cores, 0)
	}
	c := Configuration{Threads: make([]bool, threads), CoreMHz: make([]int, cores)}
	for i := range c.Threads {
		c.Threads[i] = at(1+i/8)&(1<<(i%8)) != 0
	}
	for i := range c.CoreMHz {
		c.CoreMHz[i] = fuzzClock(at(4 + i))
	}
	c.UncoreMHz = fuzzClock(at(16))
	return c
}

// FuzzConfigurationKey checks validation and the key formatters on
// decoded socket configurations: Validate accepts exactly the in-limit,
// correctly shaped ones (and never panics); AppendKey, Key and the
// machine's interned ConfigKey agree byte for byte with the reference
// formatter; and a repeated ConfigKey returns the same interned string
// without allocating.
func FuzzConfigurationKey(f *testing.F) {
	f.Add([]byte{}) // more seeds in testdata/fuzz/FuzzConfigurationKey
	f.Fuzz(func(t *testing.T, data []byte) {
		topo := HaswellEP()
		c := decodeConfig(topo, data)
		shaped := len(c.Threads) == topo.ThreadsPerSocket() && len(c.CoreMHz) == topo.CoresPerSocket
		inLimits := c.UncoreMHz >= MinUncoreMHz && c.UncoreMHz <= MaxUncoreMHz
		for _, mhz := range c.CoreMHz {
			inLimits = inLimits && mhz >= MinCoreMHz && mhz <= TurboMHz
		}
		if err := c.Validate(topo); (err == nil) != (shaped && inLimits) {
			t.Fatalf("Validate = %v for shaped=%v inLimits=%v", err, shaped, inLimits)
		}
		if !shaped {
			return // keys are defined for the topology's slot counts only
		}

		tpc := topo.ThreadsPerCore
		want := refKey(c, tpc)
		if got := c.Key(tpc); got != want {
			t.Fatalf("Key = %q, want %q", got, want)
		}
		if got := string(c.AppendKey([]byte("prefix:"), tpc)); got != "prefix:"+want {
			t.Fatalf("AppendKey = %q, want %q", got, "prefix:"+want)
		}

		m := NewMachine(topo, DefaultPowerParams(), 1)
		k1 := m.ConfigKey(c)
		if k1 != want {
			t.Fatalf("ConfigKey = %q, want %q", k1, want)
		}
		if k2 := m.ConfigKey(c); unsafe.StringData(k2) != unsafe.StringData(k1) {
			t.Fatal("repeated ConfigKey returned a fresh string, not the interned one")
		}
		if n := testing.AllocsPerRun(10, func() { m.ConfigKey(c) }); n != 0 {
			t.Fatalf("interned ConfigKey allocates %v times per call", n)
		}
	})
}
