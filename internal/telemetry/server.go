package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"
)

// Server is the session's observability endpoint. It serves only immutable
// byte blobs published by the simulation driver at barrier-time boundaries
// (plus process self-metrics sampled at scrape time), so the HTTP
// goroutines never touch live simulation state — the bitwise goldens and
// the sharded determinism contract are unaffected by scrapes (DESIGN.md
// §17).
//
//	/metrics        Prometheus text: published sim metrics + process gauges
//	/healthz        200 "ok" liveness probe
//	/snapshot       the latest published SessionSnapshot as JSON
//	/debug/pprof/   net/http/pprof (profile, heap, goroutine, trace, ...)
type Server struct {
	ln    net.Listener
	srv   *http.Server
	prom  atomic.Pointer[[]byte]
	snap  atomic.Pointer[[]byte]
	start time.Time
}

// NewServer binds addr (e.g. "127.0.0.1:9188", ":9188", or "127.0.0.1:0"
// for an ephemeral test port) and starts serving. The bind happens
// synchronously so configuration errors surface at session construction.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, start: time.Now()}
	empty := []byte{}
	s.prom.Store(&empty)
	s.snap.Store(&empty)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:0" resolves to the real port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Publish atomically replaces the served blobs. prom is the Prometheus
// text body of the simulation's metric families; snapJSON the /snapshot
// body. The server copies both, so the caller may reuse its buffers.
func (s *Server) Publish(prom, snapJSON []byte) {
	p := append([]byte(nil), prom...)
	s.prom.Store(&p)
	j := append([]byte(nil), snapJSON...)
	s.snap.Store(&j)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(*s.prom.Load())
	s.writeProcessMetrics(w)
}

// writeProcessMetrics samples the Go runtime at scrape time: heap, GC,
// goroutines, uptime. These are the only values /metrics reads outside the
// published blob, and they touch only the runtime — never the simulation.
func (s *Server) writeProcessMetrics(w http.ResponseWriter) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP go_goroutines Number of goroutines.\n# TYPE go_goroutines gauge\ngo_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP go_heap_alloc_bytes Heap bytes in use.\n# TYPE go_heap_alloc_bytes gauge\ngo_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP go_heap_objects Live heap objects.\n# TYPE go_heap_objects gauge\ngo_heap_objects %d\n", ms.HeapObjects)
	fmt.Fprintf(w, "# HELP go_gc_cycles_total Completed GC cycles.\n# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# HELP process_uptime_seconds Wall-clock seconds since the telemetry server started.\n# TYPE process_uptime_seconds gauge\nprocess_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	b := *s.snap.Load()
	if len(b) == 0 {
		http.Error(w, `{"error":"no snapshot published yet"}`, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// Close shuts the listener and in-flight connections down. Idempotent.
func (s *Server) Close() error { return s.srv.Close() }
