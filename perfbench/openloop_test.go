package main

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock only moves when a request's work or a sleep moves it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
}

func (c *fakeClock) advance(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
	return c.t
}

func TestOpenLoopTimesFromDueAndSeparatesLag(t *testing.T) {
	const msec = time.Millisecond
	clk := &fakeClock{}
	due := []time.Duration{0, 1 * msec, 2 * msec, 40 * msec}
	recs, dropped := runOpenLoop(clk, due, 1, time.Second, func(conn, i int) (bool, time.Duration) {
		return true, clk.advance(10 * msec) // every request takes 10 ms
	})
	if dropped != 0 || len(recs) != 4 {
		t.Fatalf("got %d records, %d dropped; want 4 and 0", len(recs), dropped)
	}
	// Requests 1 and 2 queue behind request 0: their latency counts the
	// wait from their due time, and their late start is not generator lag.
	wantLat := []time.Duration{10 * msec, 19 * msec, 28 * msec, 10 * msec}
	wantIdle := []bool{true, false, false, true}
	for i, r := range recs {
		if r.Latency() != wantLat[i] || r.Idle != wantIdle[i] {
			t.Errorf("request %d: latency %v idle %v, want %v %v", i, r.Latency(), r.Idle, wantLat[i], wantIdle[i])
		}
		if r.Idle && r.Lag() != 0 {
			t.Errorf("request %d: an idle connection sent %v late on a fake clock", i, r.Lag())
		}
	}
}

func TestOpenLoopAbandonsBacklogAtCutoff(t *testing.T) {
	clk := &fakeClock{}
	due := make([]time.Duration, 10) // all due at once
	recs, dropped := runOpenLoop(clk, due, 1, 25*time.Millisecond, func(conn, i int) (bool, time.Duration) {
		return true, clk.advance(10 * time.Millisecond)
	})
	// Sends start at 0, 10 and 20 ms; at 30 ms the cutoff has passed.
	if len(recs) != 3 || dropped != 7 {
		t.Errorf("got %d sent and %d abandoned, want 3 and 7", len(recs), dropped)
	}
}

func TestOpenLoopSendsEachRequestOnceAcrossConnections(t *testing.T) {
	clk := &fakeClock{}
	due := make([]time.Duration, 200)
	var mu sync.Mutex
	seen := map[int]int{}
	recs, dropped := runOpenLoop(clk, due, 4, time.Hour, func(conn, i int) (bool, time.Duration) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return true, clk.Now()
	})
	if dropped != 0 || len(recs) != len(due) || len(seen) != len(due) {
		t.Fatalf("sent %d of %d (%d distinct), dropped %d", len(recs), len(due), len(seen), dropped)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("request %d sent %d times", i, n)
		}
	}
}

func TestPoissonScheduleIsSeededAndHitsRate(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 500, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 500, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if len(a) < 4800 || len(a) > 5200 {
		t.Errorf("%d arrivals in 10 s at 500/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("schedule not ascending within the window at %d", i)
		}
	}
}
