package main

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// TestCustomRunRejectsBadInputBeforeProbing: a custom run with a
// non-positive -duration, an unknown -load or a -load replay without
// -trace must fail before the capacity probe, printing nothing — not
// after seconds of probing and the capacity line.
func TestCustomRunRejectsBadInputBeforeProbing(t *testing.T) {
	for _, c := range []struct {
		name, load, trace string
		dur               time.Duration
		want              string
	}{
		{name: "zero duration", load: "spike", dur: 0, want: "-duration must be positive"},
		{name: "negative duration", load: "constant", dur: -time.Second, want: "-duration must be positive"},
		{name: "unknown load", load: "bogus", dur: 10 * time.Second, want: `unknown load profile "bogus"`},
		{name: "replay without trace", load: "replay", dur: 10 * time.Second, want: "-load replay needs -trace"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := captureStdout(t, func() error {
				return customRun("kv-indexed", c.load, c.trace, 0.5, c.dur, 42, "", 0, obsOut{})
			})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
			if out != "" {
				t.Fatalf("printed %q before rejecting the input", out)
			}
		})
	}
}

// captureStdout runs f with os.Stdout redirected to a temporary file and
// returns what it printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	orig := os.Stdout
	os.Stdout = tmp
	runErr := f()
	os.Stdout = orig
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}
