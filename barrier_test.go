package hierdrl

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// barrierWork burns up to 1024 loop iterations of CPU; 1 in 1024 calls sleeps
// for a millisecond instead, longer than any spin budget, so the park paths
// of both sides run even with the default budget.
func barrierWork(rng *rand.Rand, sink *uint64) {
	if rng.Intn(1024) == 0 {
		time.Sleep(time.Millisecond)
		return
	}
	n := rng.Intn(1024)
	x := *sink
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	*sink = x
}

// TestEpochBarrierStress drives epochBarrier through randomized phases at
// P = 2, 3, 4, 8 shards, once with a zero spin budget (every wait parks, on
// both sides) and once with the budget init picks for this machine. Each
// round checks that every worker ran that generation exactly once and had
// arrived before join returned; the plain (non-atomic) per-worker slots also
// let the race detector check the barrier's happens-before edges. stop must
// let every worker exit.
func TestEpochBarrierStress(t *testing.T) {
	rounds := 10000
	if testing.Short() {
		rounds = 2000
	}
	for _, park := range []bool{true, false} {
		for _, p := range []int{2, 3, 4, 8} {
			name := fmt.Sprintf("P%d/default", p)
			if park {
				name = fmt.Sprintf("P%d/park", p)
			}
			t.Run(name, func(t *testing.T) { stressBarrier(t, p-1, park, rounds) })
		}
	}
}

func stressBarrier(t *testing.T, workers int, park bool, rounds int) {
	var b epochBarrier
	b.init(workers)
	if park {
		b.spin = 0
	}
	var (
		stop bool
		// ran[w] counts the phases worker w ran; seen[w] is the generation
		// it last observed. Written only by worker w between await and
		// arrive, read only by the coordinator after join.
		ran  = make([]int, workers)
		seen = make([]uint64, workers)
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			var sink, gen uint64
			for {
				gen = b.await(gen)
				if stop {
					b.arrive()
					return
				}
				barrierWork(rng, &sink)
				ran[w]++
				seen[w] = gen
				b.arrive()
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(0))
	var sink uint64
	for r := 1; r <= rounds; r++ {
		b.release()
		barrierWork(rng, &sink)
		b.join()
		if got := b.arrived.Load(); got != int32(workers) {
			t.Fatalf("round %d: join returned with %d of %d workers arrived", r, got, workers)
		}
		for w := 0; w < workers; w++ {
			if ran[w] != r || seen[w] != uint64(r) {
				t.Fatalf("round %d: worker %d ran %d phases, last generation %d", r, w+1, ran[w], seen[w])
			}
		}
	}
	stop = true
	b.release()
	b.join()
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("workers did not exit after stop")
	}
}

// TestShardWorkersParkWhenIdle pins that the workers' spin is bounded: once
// StepUntil returns and the caller goes quiet, every worker is parked on the
// condition variable within 100 ms, and Close still stops them.
func TestShardWorkersParkWhenIdle(t *testing.T) {
	tr := SyntheticTraceForCluster(2000, 64, 1)
	for _, p := range []int{2, 4} {
		s, err := NewSession(ScaleSim(64), WithShards(p))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitTrace(tr); err != nil {
			t.Fatal(err)
		}
		if err := s.StepUntil(Time(tr.Jobs[len(tr.Jobs)/2].Arrival)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(100 * time.Millisecond)
		for s.sr.bar.sleepers.Load() != int32(p-1) {
			if time.Now().After(deadline) {
				t.Fatalf("P=%d: %d of %d workers parked 100 ms after StepUntil returned",
					p, s.sr.bar.sleepers.Load(), p-1)
			}
			time.Sleep(time.Millisecond)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}
