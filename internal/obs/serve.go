package obs

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server exposes a registry (and the process profiles) over HTTP:
//
//	/debug/vars          — standard expvar page (includes the registry)
//	/debug/metrics       — the registry's JSON snapshot alone
//	/debug/metrics.prom  — Prometheus text exposition (format 0.0.4)
//	/debug/timeseries    — the sampler's ring-buffer series as JSON
//	/debug/errors        — the error journal (counts + exemplars)
//	/debug/health        — the SLO verdict (503 while failing)
//	/debug/pprof/*       — net/http/pprof handlers
//
// A dedicated mux is used so nothing leaks onto http.DefaultServeMux
// and two servers in one process (e.g. -metrics and -pprof on separate
// ports) cannot collide.
type Server struct {
	srv    *http.Server
	ln     net.Listener
	health *HealthEvaluator
	sink   *LineSink
}

// ShutdownTimeout bounds how long Close waits for in-flight scrapes to
// finish before hard-closing connections.
const ShutdownTimeout = 5 * time.Second

// ServeConfig bundles everything a Server can expose. Every field is
// optional; absent subsystems simply don't mount their endpoints.
type ServeConfig struct {
	Registry *Registry
	Sampler  *Sampler
	Journal  *Journal
	// Health is served at /debug/health; Close also stops it so no
	// tick re-evaluates the verdict after shutdown begins.
	Health *HealthEvaluator
	// LogSink, when set, is flushed before Close returns, so the last
	// log lines of a run are on disk once the server is down.
	LogSink *LineSink
}

// ServeWith starts an HTTP server on addr. When cfg.Registry is
// non-nil its snapshot is served at /debug/metrics (JSON) and
// /debug/metrics.prom (Prometheus) and published to expvar (so it also
// shows under /debug/vars); cfg.Sampler serves /debug/timeseries,
// cfg.Journal /debug/errors, cfg.Health /debug/health; pprof is always
// mounted. addr may use port 0 for an ephemeral port — Addr reports
// the bound address.
func ServeWith(addr string, cfg ServeConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	MountDebug(mux, cfg)
	s := &Server{
		srv:    &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:     ln,
		health: cfg.Health,
		sink:   cfg.LogSink,
	}
	go s.srv.Serve(ln) //nolint — Serve always returns non-nil after Close
	return s, nil
}

// MountDebug registers the /debug endpoint set on mux — the same
// surface ServeWith exposes, for callers (the serving layer) that run
// their own http.Server and want the observability endpoints alongside
// their application routes. Absent cfg subsystems simply don't mount
// their endpoints; pprof and /debug/vars are always mounted.
func MountDebug(mux *http.ServeMux, cfg ServeConfig) {
	mux.Handle("/debug/vars", expvar.Handler())
	if reg := cfg.Registry; reg != nil {
		reg.PublishExpvar("slj")
		mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = reg.WriteJSON(w)
		})
		mux.HandleFunc("/debug/metrics.prom", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", PromContentType)
			_ = reg.WriteProm(w)
		})
	}
	if smp := cfg.Sampler; smp != nil {
		mux.HandleFunc("/debug/timeseries", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = smp.WriteJSON(w)
		})
	}
	if j := cfg.Journal; j != nil {
		mux.HandleFunc("/debug/errors", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = j.WriteJSON(w)
		})
	}
	if h := cfg.Health; h != nil {
		mux.HandleFunc("/debug/health", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			// Ready and degraded runs still answer 200 (a degraded run
			// is serving, just burning budget); failing answers 503 so
			// load balancers and liveness probes eject the process.
			if h.Health() == VerdictFailing {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = h.WriteJSON(w)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server gracefully: the SLO evaluator is stopped
// first (so no late tick flips the verdict under a shutting-down
// process), then the listener closes so no new scrape can start, while
// requests already in flight (a Prometheus scrape racing CLI.Stop,
// say) get up to ShutdownTimeout to finish before connections are torn
// down. The log sink, when one was configured, is flushed before Close
// returns — the run's last events hit disk no later than its server
// goes away. Safe on a nil receiver.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.health.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), ShutdownTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		// A scrape outlived the grace period; fall back to a hard close.
		err = s.srv.Close()
	}
	if ferr := s.sink.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return fmt.Errorf("obs: closing server: %w", err)
	}
	return nil
}
