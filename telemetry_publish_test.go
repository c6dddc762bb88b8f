package hierdrl

import (
	"fmt"
	"math"
	"testing"
)

// TestSketchOnlyPublishInvisible pins that telemetry reads never change the
// sketches they read: under WithSketchOnly, a run with /metrics publishes
// forced at several epochs reports the same Summary quantiles, bit for bit,
// as the same run with none. Publishes happen on a wall-clock throttle in
// real runs, so a read that folded the live digests' buffers would make the
// reported p99 depend on timing. The publish-free run must also keep the
// quantiles sketch-only mode reported when reads still folded the live
// buffers (nothing was read before Result then, so both agree).
func TestSketchOnlyPublishInvisible(t *testing.T) {
	const m = 16
	cfg := RoundRobin(m)
	cfg.Alloc = AllocLeastLoaded
	tr := SyntheticTraceForCluster(6000, m, 11)
	want := map[int][3]uint64{
		1: {0x40849f8f6531abe8, 0x40a6c3db5d3f96d9, 0x40b545e174c83a0a},
		2: {0x40849e7e2e29679a, 0x40a6b618cded22ba, 0x40b5611ef8154895},
	}
	run := func(p int, publishAt map[int]bool) Summary {
		opts := []SessionOption{WithSketchOnly(), WithShards(p)}
		if publishAt != nil {
			opts = append(opts, WithTelemetry("127.0.0.1:0"))
		}
		s, err := NewSession(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.SubmitTrace(tr); err != nil {
			t.Fatal(err)
		}
		for epoch := 1; ; epoch++ {
			more, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				break
			}
			if publishAt[epoch] {
				s.tel.publish(s)
			}
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary
	}
	bits := func(s Summary) [3]uint64 {
		return [3]uint64{math.Float64bits(s.P50LatencySec), math.Float64bits(s.P95LatencySec), math.Float64bits(s.P99LatencySec)}
	}
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			quiet := run(p, nil)
			if got := bits(quiet); got != want[p] {
				t.Errorf("publish-free quantiles %v (bits %x), want bits %x",
					[3]float64{quiet.P50LatencySec, quiet.P95LatencySec, quiet.P99LatencySec}, got, want[p])
			}
			for _, at := range [][]int{{1}, {137, 1500, 2203}, {400, 401, 402, 4444, 5999}} {
				publishAt := map[int]bool{}
				for _, e := range at {
					publishAt[e] = true
				}
				if loud := run(p, publishAt); bits(loud) != bits(quiet) {
					t.Errorf("publishes at epochs %v changed the quantiles: p50/p95/p99 %v/%v/%v, want %v/%v/%v", at,
						loud.P50LatencySec, loud.P95LatencySec, loud.P99LatencySec,
						quiet.P50LatencySec, quiet.P95LatencySec, quiet.P99LatencySec)
				}
			}
		})
	}
}
