// Package obshttp serves the observability state of a running
// exploration over HTTP, so a long sweep can be watched, scraped and
// profiled while it runs instead of being a black box until it exits:
//
//	/metrics      counters, gauges and histograms from the obs.Registry
//	              plus live progress gauges, in Prometheus text
//	              exposition format (scrape it, or just curl it)
//	/progress     the obs.Progress snapshot as JSON (phase,
//	              current/total, best cost, moving rate, ETA)
//	/trace        the current Chrome trace_event snapshot of the
//	              obs.Tracer (open spans flagged unfinished) — load a
//	              mid-run trace in Perfetto without stopping anything
//	/events       Server-Sent Events stream of the obs.EventLog —
//	              lifecycle events (job submitted/started/done, app
//	              timeouts) with replay via ?since / Last-Event-ID, plus
//	              periodic progress frames (events.go)
//	/healthz      liveness: 200 "ok"
//	/debug/vars   expvar (Go runtime memstats, cmdline)
//	/debug/pprof  the standard pprof handlers, so `go tool pprof
//	              http://host:port/debug/pprof/profile?seconds=5`
//	              attaches to a sweep mid-flight
//
// Everything served here is observation-only: handlers snapshot the
// instruments the search stack publishes into, and nothing in the stack
// reads back, so serving cannot alter results (the paperbench tests pin
// byte-identical tables with and without -serve). All option fields are
// optional — a nil Registry/Progress/Tracer serves valid empty bodies.
//
// cmd/paperbench wires this up behind -serve, and cmd/ftesd on its
// listen address.
package obshttp

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// testMetricsGate, when non-nil, runs at the top of every /metrics
// request. Tests use it to hold a scrape in flight while Shutdown runs,
// proving graceful drain.
var testMetricsGate func()

// DefaultDrainTimeout bounds Drain's graceful shutdown when Options does
// not say otherwise.
const DefaultDrainTimeout = 2 * time.Second

// Options selects what the endpoints expose. Every field is optional.
type Options struct {
	// Registry feeds /metrics (and /debug/vars stays Go-runtime-only when
	// nil).
	Registry *obs.Registry
	// Progress feeds /progress and the progress_* gauges on /metrics.
	Progress *obs.Progress
	// Tracer feeds /trace.
	Tracer *obs.Tracer
	// Events feeds /events; nil serves a stream that only ever carries
	// progress frames (when Progress is set) and heartbeats.
	Events *obs.EventLog
	// EventJob, when non-empty, restricts /events to lifecycle events
	// whose Job matches — the per-job introspection mounts in ftesd set
	// it so each job streams only its own story. Clients can restrict a
	// daemon-wide stream the same way with ?job=<id>.
	EventJob string
	// DrainTimeout bounds how long Drain waits for in-flight requests
	// before force-closing them (0 = DefaultDrainTimeout). Long-running
	// daemons surface this as a flag (ftesd -drain); paperbench uses the
	// default.
	DrainTimeout time.Duration
}

// Handler returns the introspection mux over the given instruments.
func Handler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if testMetricsGate != nil {
			testMetricsGate()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteProm(w, o.Registry.Snapshot(), o.Progress.Status()); err != nil {
			// Too late for an error status; the client sees a short body.
			return
		}
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(o.Progress.Status())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = o.Tracer.WriteChromeTrace(w)
	})
	mux.HandleFunc("/events", handleEvents(o))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "live introspection endpoints:\n"+
			"  /metrics      Prometheus exposition (counters, histograms, progress gauges)\n"+
			"  /progress     progress snapshot (JSON)\n"+
			"  /trace        Chrome trace_event snapshot (JSON)\n"+
			"  /events       lifecycle + progress event stream (SSE; ?since=N, ?job=ID)\n"+
			"  /healthz      liveness\n"+
			"  /debug/vars   expvar\n"+
			"  /debug/pprof  pprof profiles\n")
	})
	return mux
}

// Server is a running introspection listener; create one with Serve (or
// ServeHandler for a custom mux) and stop it with Close or Drain.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	drain time.Duration
}

// Serve starts serving the introspection endpoints on addr (e.g. ":8080"
// or "127.0.0.1:0" for an ephemeral port) in a background goroutine. The
// caller owns the returned Server and must Close it.
func Serve(addr string, o Options) (*Server, error) {
	return ServeHandler(addr, Handler(o), o)
}

// ServeHandler is Serve with a caller-provided handler instead of the
// default introspection mux; o contributes only the drain configuration.
// ftesd uses it to serve its job API alongside per-job introspection
// mounts while reusing the listener and graceful-drain machinery.
func ServeHandler(addr string, h http.Handler, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obshttp: listen %s: %w", addr, err)
	}
	drain := o.DrainTimeout
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}, drain: drain}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (with the real port when the
// requested one was 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the http:// base URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the listener and closes open connections.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops the server gracefully: the listener closes immediately
// (no new scrapes are admitted) while requests already in flight get
// until ctx's deadline to complete. It returns ctx's error if the drain
// ran out of time; callers should fall back to Close then.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Drain is Shutdown bounded by the configured drain deadline
// (Options.DrainTimeout, default DefaultDrainTimeout), falling back to
// Close when the deadline passes with requests still in flight. It is the
// one-call graceful teardown the binaries use.
func (s *Server) Drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.drain)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
		return err
	}
	return nil
}
