package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hypermm"
)

// testJob returns a small runnable job: 3D All on p=8, n=16.
func testJob(t *testing.T) Job {
	t.Helper()
	pl := NewPlanner(8)
	plan, err := pl.Plan(PlanRequest{N: 16, P: 8, Ts: 150, Tw: 3, Tc: 0.5, Ports: hypermm.OnePort})
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Plan: plan,
		Cfg:  hypermm.Config{P: 8, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5},
		A:    hypermm.RandomMatrix(16, 16, 1),
		B:    hypermm.RandomMatrix(16, 16, 2),
	}
}

func TestSchedulerRunsJob(t *testing.T) {
	m := NewMetrics()
	pool := hypermm.NewMachinePool(2)
	defer pool.Close()
	s := NewScheduler(2, 4, pool, m)
	job := testJob(t)
	job.Verify = true
	r, err := s.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if r.Res == nil || r.Res.Elapsed <= 0 {
		t.Fatal("no simulated result")
	}
	if r.Ratio <= 0.5 || r.Ratio >= 2 {
		t.Errorf("sim/predicted ratio %g looks wrong", r.Ratio)
	}
	if jobs := m.Jobs(); jobs["3dall"] != 1 {
		t.Errorf("jobs counter = %v, want 3dall:1", jobs)
	}
	// A second identical job reuses the warm machine and must report the
	// same simulated makespan bit for bit.
	r2, err := s.Submit(context.Background(), testJob(t))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Res.Elapsed != r.Res.Elapsed {
		t.Errorf("warm rerun Elapsed %g != first run %g", r2.Res.Elapsed, r.Res.Elapsed)
	}
	st := pool.Stats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Errorf("pool stats after warm rerun look wrong: %+v", st)
	}
}

func TestSchedulerSaturationAndDrain(t *testing.T) {
	m := NewMetrics()
	s := NewScheduler(1, 1, nil, m)
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	entered := make(chan struct{}, 4)
	s.onExec = func() {
		entered <- struct{}{}
		<-hold
	}

	job1, job2 := testJob(t), testJob(t)
	type outcome struct {
		r   *JobResult
		err error
	}
	res1 := make(chan outcome, 1)
	go func() {
		r, err := s.Submit(context.Background(), job1)
		res1 <- outcome{r, err}
	}()
	<-entered // worker now holds job 1; queue is empty

	res2 := make(chan outcome, 1)
	go func() {
		r, err := s.Submit(context.Background(), job2)
		res2 <- outcome{r, err}
	}()
	waitFor(t, func() bool { return m.QueueDepth() == 1 }) // job 2 queued

	// Queue full, worker busy: admission control rejects job 3.
	if _, err := s.Submit(context.Background(), testJob(t)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("submit on full queue: err = %v, want ErrSaturated", err)
	}
	if m.Rejects() != 1 {
		t.Errorf("rejects = %d, want 1", m.Rejects())
	}

	// Begin drain with one job running and one queued: intake closes
	// immediately, both admitted jobs still complete.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, s.Draining)
	if _, err := s.Submit(context.Background(), testJob(t)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}

	release() // release the worker
	o1, o2 := <-res1, <-res2
	if o1.err != nil || o2.err != nil {
		t.Fatalf("admitted jobs failed across drain: %v, %v", o1.err, o2.err)
	}
	if o1.r.Res == nil || o2.r.Res == nil {
		t.Fatal("admitted jobs returned no result")
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if jobs := m.Jobs(); jobs["3dall"] != 2 {
		t.Errorf("jobs counter = %v, want 3dall:2", jobs)
	}
}

func TestSchedulerCanceledBeforeStart(t *testing.T) {
	m := NewMetrics()
	s := NewScheduler(1, 2, nil, m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, testJob(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSchedulerFaultErrors(t *testing.T) {
	m := NewMetrics()
	s := NewScheduler(1, 2, nil, m)

	job := testJob(t)
	job.Cfg.Faults = &hypermm.FaultPlan{Seed: 1, Drop: 1, MaxRetries: 2}
	if _, err := s.Submit(context.Background(), job); !errors.Is(err, hypermm.ErrLinkDown) {
		t.Fatalf("total drop: err = %v, want ErrLinkDown", err)
	}

	job = testJob(t)
	job.Cfg.Deadline = 10
	if _, err := s.Submit(context.Background(), job); !errors.Is(err, hypermm.ErrDeadline) {
		t.Fatalf("tiny deadline: err = %v, want ErrDeadline", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
