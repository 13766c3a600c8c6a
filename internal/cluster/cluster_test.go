package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hypermm"
)

// testCluster boots a coordinator plus workers with the given exec
// hooks over loopback TCP and waits for every registration.
func testCluster(t *testing.T, cfg Config, execs ...ExecFunc) (*Coordinator, []*Worker) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	workers := make([]*Worker, len(execs))
	for i, exec := range execs {
		w, err := Join(context.Background(), coord.Addr().String(), WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Exec: exec,
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(context.Background())
		t.Cleanup(w.Abort)
		workers[i] = w
	}
	waitWorkers(t, coord, len(execs))
	return coord, workers
}

func waitWorkers(t *testing.T, coord *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkerCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("worker count stuck at %d, want %d", coord.WorkerCount(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// p=64 suits every algorithm under test: a square (8x8) for Cannon, a
// perfect cube (4^3) for 3D All, and a power of two throughout.
var testCfg = hypermm.Config{P: 64, Ports: hypermm.OnePort, Ts: 150, Tw: 3, Tc: 0.5}

// TestSubmitMatchesLocalRun pins the tentpole contract: a job routed
// through the coordinator/worker tier over real TCP returns
// byte-identical C, Elapsed and CommStats to a local hypermm.Run.
func TestSubmitMatchesLocalRun(t *testing.T) {
	coord, _ := testCluster(t, Config{}, LocalExec, LocalExec)
	A := hypermm.RandomMatrix(16, 16, 1)
	B := hypermm.RandomMatrix(16, 16, 2)
	for _, alg := range []hypermm.Algorithm{hypermm.Cannon, hypermm.ThreeAll, hypermm.Simple} {
		local, err := hypermm.Run(alg, testCfg, A, B)
		if err != nil {
			t.Fatalf("%v local: %v", alg, err)
		}
		remote, err := coord.Submit(context.Background(), alg, testCfg, A, B)
		if err != nil {
			t.Fatalf("%v remote: %v", alg, err)
		}
		if remote.Elapsed != local.Elapsed {
			t.Errorf("%v: Elapsed %g != local %g", alg, remote.Elapsed, local.Elapsed)
		}
		if remote.Comm != local.Comm {
			t.Errorf("%v: CommStats %+v != local %+v", alg, remote.Comm, local.Comm)
		}
		for i := range local.C.Data {
			if remote.C.Data[i] != local.C.Data[i] {
				t.Fatalf("%v: product word %d differs: %g != %g", alg, i, remote.C.Data[i], local.C.Data[i])
			}
		}
	}
	st := coord.Stats()
	if st.Completed != 3 || st.Dispatched != 3 || st.Failovers != 0 {
		t.Errorf("stats after 3 clean jobs: %+v", st)
	}
}

// TestFaultPlanPropagates runs a recoverable fault plan through the
// wire: retries must be charged remotely exactly as locally, and a
// hostile plan must surface a typed ErrLinkDown across the boundary.
func TestFaultPlanPropagates(t *testing.T) {
	coord, _ := testCluster(t, Config{}, LocalExec)
	A := hypermm.RandomMatrix(16, 16, 3)
	B := hypermm.RandomMatrix(16, 16, 4)

	cfg := testCfg
	cfg.Faults = &hypermm.FaultPlan{Seed: 5, Drop: 0.1, MaxRetries: 40}
	local, err := hypermm.Run(hypermm.Cannon, cfg, A, B)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := coord.Submit(context.Background(), hypermm.Cannon, cfg, A, B)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Comm != local.Comm || remote.Elapsed != local.Elapsed {
		t.Errorf("faulted run diverged: remote %+v/%g, local %+v/%g",
			remote.Comm, remote.Elapsed, local.Comm, local.Elapsed)
	}
	if remote.Comm.Retries == 0 {
		t.Error("fault plan did not propagate (no retries charged)")
	}

	cfg.Faults = &hypermm.FaultPlan{Seed: 5, Down: []hypermm.Window{{Src: -1, Dst: -1, From: 0, To: hypermm.Forever}}, MaxRetries: 1}
	if _, err := coord.Submit(context.Background(), hypermm.Cannon, cfg, A, B); !errors.Is(err, hypermm.ErrLinkDown) {
		t.Errorf("hostile plan: got %v, want ErrLinkDown", err)
	}
}

// TestLeastLoadedSpreads floods two workers with concurrent jobs and
// checks both actually execute some.
func TestLeastLoadedSpreads(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	slowExec := func(name string) ExecFunc {
		return func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
			mu.Lock()
			counts[name]++
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			return hypermm.Run(alg, cfg, A, B)
		}
	}
	coord, _ := testCluster(t, Config{}, slowExec("w0"), slowExec("w1"))
	A := hypermm.RandomMatrix(8, 8, 1)
	B := hypermm.RandomMatrix(8, 8, 2)
	cfg := hypermm.Config{P: 4, Ports: hypermm.OnePort, Ts: 150, Tw: 3}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := coord.Submit(context.Background(), hypermm.Cannon, cfg, A, B); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if counts["w0"] == 0 || counts["w1"] == 0 {
		t.Errorf("least-loaded routing starved a worker: %v", counts)
	}
}

// TestVersionMismatchRefused hand-rolls a registration with the wrong
// protocol version and a registration missing the matmul capability;
// both must be refused with a reason.
func TestVersionMismatchRefused(t *testing.T) {
	coord, err := NewCoordinator(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	refusal := func(h hello) string {
		t.Helper()
		conn, err := net.Dial("tcp", coord.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, msgHello, h, nil); err != nil {
			t.Fatal(err)
		}
		mt, hdr, _, err := readFrame(bufio.NewReader(conn), DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if mt != msgWelcome {
			t.Fatalf("reply type %d", mt)
		}
		var wel welcome
		if err := json.Unmarshal(hdr, &wel); err != nil {
			t.Fatal(err)
		}
		if wel.OK {
			t.Fatal("registration accepted, want refusal")
		}
		return wel.Reason
	}

	if r := refusal(hello{Version: ProtocolVersion + 1, Name: "bad", Capabilities: []string{CapMatmul}}); r == "" {
		t.Error("version refusal has no reason")
	}
	if r := refusal(hello{Version: ProtocolVersion, Name: "bad", Capabilities: []string{"other/v9"}}); r == "" {
		t.Error("capability refusal has no reason")
	}
}

// TestHostileResultShapeRefused hand-rolls a worker that answers its
// job with a 2^31 x 2^31 result header over a 16-byte tail. The
// coordinator's read loop must refuse the frame as a transport error
// rather than panic (it has no recover, so a panic ends the process),
// and the job must fail with that error instead of a product.
func TestHostileResultShapeRefused(t *testing.T) {
	coord, err := NewCoordinator(Config{Addr: "127.0.0.1:0", RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	conn, err := net.Dial("tcp", coord.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, msgHello, hello{Version: ProtocolVersion, Name: "hostile", Capabilities: []string{CapMatmul}}, nil); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if mt, _, _, err := readFrame(br, DefaultMaxFrame); err != nil || mt != msgWelcome {
		t.Fatalf("registration: type %d, %v", mt, err)
	}
	go func() {
		for {
			mt, hdr, _, err := readFrame(br, DefaultMaxFrame)
			if err != nil {
				return
			}
			if mt != msgJob {
				continue
			}
			var spec jobSpec
			if json.Unmarshal(hdr, &spec) != nil {
				return
			}
			_ = writeFrame(conn, msgResult, jobReply{ID: spec.ID, Rows: 1 << 31, Cols: 1 << 31}, make([]byte, 16))
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	A := hypermm.RandomMatrix(4, 4, 1)
	res, err := coord.Submit(ctx, hypermm.Cannon, hypermm.Config{P: 4, Ts: 1, Tw: 1}, A, A)
	if err == nil {
		t.Fatalf("hostile result accepted: %dx%d product", res.C.Rows, res.C.Cols)
	}
	if !strings.Contains(err.Error(), "cannot hold") {
		t.Errorf("got %v, want the bad-tail refusal", err)
	}
}

// TestWorkerRefusesHostileJobShape plays the coordinator for a worker
// with no MaxN: a job frame claiming n = 2^31 over a 16-byte operand
// tail must be answered with a bad-job refusal, never reach Exec, and
// leave the worker serving.
func TestWorkerRefusesHostileJobShape(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		br   *bufio.Reader
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			acc <- accepted{err: err}
			return
		}
		br := bufio.NewReader(conn)
		if _, _, _, err := readFrame(br, DefaultMaxFrame); err != nil {
			acc <- accepted{err: err}
			return
		}
		err = writeFrame(conn, msgWelcome, welcome{Version: ProtocolVersion, OK: true, WorkerID: 1}, nil)
		acc <- accepted{conn, br, err}
	}()
	exec := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		return nil, errors.New("hostile job reached Exec")
	}
	w, err := Join(context.Background(), ln.Addr().String(), WorkerConfig{Name: "w", Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	served := make(chan error, 1)
	go func() { served <- w.Serve(context.Background()) }()
	a := <-acc
	if a.err != nil {
		t.Fatal(a.err)
	}
	defer a.conn.Close()

	spec := jobSpec{ID: 7, Algorithm: "cannon", N: 1 << 31, P: 4, Ts: 1, Tw: 1}
	if err := writeFrame(a.conn, msgJob, spec, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	mt, hdr, _, err := readFrame(a.br, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	var rep jobReply
	if err := json.Unmarshal(hdr, &rep); err != nil || mt != msgResult {
		t.Fatalf("reply type %d, %v", mt, err)
	}
	if rep.ID != 7 || rep.ErrKind != kindBadJob || !strings.Contains(rep.Err, "cannot hold") {
		t.Fatalf("got reply %+v, want a bad-job refusal of the operand tail", rep)
	}
	// Still serving: a ping is answered.
	if err := writeFrame(a.conn, msgPing, ping{Seq: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if mt, _, _, err := readFrame(a.br, DefaultMaxFrame); err != nil || mt != msgPong {
		t.Fatalf("after the hostile job: type %d, %v; want a pong", mt, err)
	}
	select {
	case err := <-served:
		t.Fatalf("worker stopped serving: %v", err)
	default:
	}
}

// TestWallDeadlinePropagates gives the job a context deadline shorter
// than its (deliberately slow) execution; the worker-side context must
// expire and the caller must get a deadline error.
func TestWallDeadlinePropagates(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	slow := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-block:
			return nil, errors.New("released without deadline")
		}
	}
	coord, _ := testCluster(t, Config{}, slow)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	A := hypermm.RandomMatrix(4, 4, 1)
	_, err := coord.Submit(ctx, hypermm.Cannon, hypermm.Config{P: 4, Ts: 1, Tw: 1}, A, A)
	if err == nil {
		t.Fatal("deadline ignored")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want a deadline error", err)
	}
}

// TestNoWorkers submits against an empty registry.
func TestNoWorkers(t *testing.T) {
	coord, err := NewCoordinator(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	A := hypermm.RandomMatrix(4, 4, 1)
	if _, err := coord.Submit(context.Background(), hypermm.Cannon, hypermm.Config{P: 4}, A, A); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("got %v, want ErrNoWorkers", err)
	}
}

// TestBusyFailsOverToIdleWorker: the first worker always answers busy;
// the job must land on the second.
func TestBusyFailsOverToIdleWorker(t *testing.T) {
	busy := func(ctx context.Context, alg hypermm.Algorithm, cfg hypermm.Config, A, B *hypermm.Matrix) (*hypermm.Result, error) {
		return nil, fmt.Errorf("%w: queue full", ErrBusy)
	}
	coord, _ := testCluster(t, Config{RetryBackoff: time.Millisecond}, busy, LocalExec)
	A := hypermm.RandomMatrix(8, 8, 1)
	B := hypermm.RandomMatrix(8, 8, 2)
	cfg := hypermm.Config{P: 4, Ports: hypermm.OnePort, Ts: 150, Tw: 3}

	// Run enough jobs that at least one is routed to the busy worker
	// first (both start at load 0, ties go to the older registration —
	// the busy one).
	for i := 0; i < 4; i++ {
		res, err := coord.Submit(context.Background(), hypermm.Cannon, cfg, A, B)
		if err != nil {
			t.Fatal(err)
		}
		local, _ := hypermm.Run(hypermm.Cannon, cfg, A, B)
		if res.Elapsed != local.Elapsed {
			t.Fatal("busy-failover result diverged")
		}
	}
	if st := coord.Stats(); st.BusyRetries == 0 {
		t.Errorf("no busy retries recorded: %+v", st)
	}
}
