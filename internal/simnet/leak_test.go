package simnet

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines polls runtime.NumGoroutine until it is back to base,
// failing the test if it stays above base for too long. A goroutine
// that has signalled completion may still be a few instructions from
// exiting, hence the polling.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines still running after the run returned, want at most %d:\n%s", n, base, buf)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestNoGoroutineLeak checks that a machine owns no goroutine once a run
// has returned, whether the run was clean or aborted by a typed fault.
func TestNoGoroutineLeak(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"clean", Config{P: 16, Ports: MultiPort, Ts: 5, Tw: 1}, nil},
		{"link-down", Config{P: 16, Ts: 1, Tw: 1,
			Faults: &FaultPlan{Seed: 4, Down: []Window{{Src: -1, Dst: -1, From: 0, To: 1e18}}, MaxRetries: 1}}, ErrLinkDown},
		{"deadline", Config{P: 16, Ts: 100, Tw: 1, Deadline: 50}, ErrDeadline},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := NewMachine(c.cfg)
			for round := uint64(0); round < 3; round++ {
				if _, err := m.RunErr(exerciser(round)); !errors.Is(err, c.want) {
					t.Fatalf("round %d: got %v, want %v", round, err, c.want)
				}
				settleGoroutines(t, base)
			}
		})
	}
}
