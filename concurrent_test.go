package hypermm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestRunConcurrent runs many multiplications at once with mixed
// shapes, link-down aborts and deadline aborts — the -race target for
// the transport's process-wide message pools, which every machine
// shares: an aborted run releasing its parked buffers must not disturb
// a clean run in flight on another machine.
func TestRunConcurrent(t *testing.T) {
	cfgs := []Config{
		{P: 4, Ts: 1, Tw: 1},
		{P: 4, Ts: 150, Tw: 3, Tc: 0.5},
		{P: 16, Ts: 10, Tw: 3},
	}
	hostile := Config{P: 4, Ts: 1, Tw: 1,
		Faults: &FaultPlan{Seed: 7, Down: []Window{{Src: -1, Dst: -1, From: 0, To: Forever}}, MaxRetries: 1}}
	rushed := Config{P: 4, Ts: 1, Tw: 1, Deadline: 1e-9}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			A := RandomMatrix(8, 8, int64(g))
			B := RandomMatrix(8, 8, int64(g)+100)
			for i := 0; i < 20; i++ {
				switch rng.Intn(10) {
				case 0:
					if _, err := Run(Cannon, hostile, A, B); !errors.Is(err, ErrLinkDown) {
						t.Errorf("goroutine %d: hostile run: %v", g, err)
						return
					}
					continue
				case 1:
					if _, err := Run(Cannon, rushed, A, B); !errors.Is(err, ErrDeadline) {
						t.Errorf("goroutine %d: rushed run: %v", g, err)
						return
					}
					continue
				}
				cfg := cfgs[rng.Intn(len(cfgs))]
				res, err := Run(Simple, cfg, A, B)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if err := Verify(A, B, res.C, 1e-9); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
