package main

import (
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns the due offsets of a Poisson arrival process
// at rate requests per second over [0, dur): exponential gaps drawn
// from rng, so the same seed gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// clock is the open loop's view of time, as offsets from the start of
// the schedule. Tests substitute a fake one.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func newWallClock() wallClock { return wallClock{t0: time.Now()} }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// sent is the record of one open-loop request.
type sent struct {
	Index int
	Due   time.Duration // when the schedule wanted it sent
	Start time.Duration // when a connection actually sent it
	Done  time.Duration // when its response was complete
	// Idle is true when the connection was free before the due time;
	// only then is Start − Due the generator's own lateness rather
	// than queueing behind earlier requests.
	Idle bool
	OK   bool
}

// Latency is the time from when the request was due to its response:
// a stall therefore charges every request it delayed.
func (s sent) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the generator sent the request, meaningful only when
// Idle.
func (s sent) Lag() time.Duration { return s.Start - s.Due }

// runOpenLoop sends the scheduled requests over conns connections.
// Each connection takes the next due request, waits for its due time
// if early, and calls do, which reports success and the clock reading
// at which the response was complete (work after it, such as checking
// the answer, is not charged to the request). A request still unsent at cutoff is
// abandoned: it was never attempted, and the returned count of
// abandoned requests is the backlog the run left behind.
func runOpenLoop(clk clock, due []time.Duration, conns int, cutoff time.Duration, do func(conn, i int) (bool, time.Duration)) ([]sent, int) {
	var (
		mu   sync.Mutex
		next int
		out  []sent
		wg   sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(due) {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				now := clk.Now()
				if now >= cutoff {
					mu.Lock()
					next = len(due)
					mu.Unlock()
					return
				}
				idle := now <= due[i]
				if idle {
					clk.SleepUntil(due[i])
				}
				s := sent{Index: i, Due: due[i], Start: clk.Now(), Idle: idle}
				s.OK, s.Done = do(conn, i)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out, len(due) - len(out)
}

// windowsOf buckets latencies (ms) of the given records by due time
// into windows of length w.
func windowsOf(recs []sent, w time.Duration, n int) [][]float64 {
	out := make([][]float64, n)
	for _, r := range recs {
		k := int(r.Due / w)
		if k >= n {
			k = n - 1
		}
		out[k] = append(out[k], ms(r.Latency()))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
