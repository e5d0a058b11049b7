package epnet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// Inspector exposes a running simulation over HTTP: a Prometheus
// text-format scrape of the telemetry registry at /metrics, a JSON
// per-entity snapshot (link rates, power, queue depths, live outages)
// at /snapshot, the live engine self-profile at /profile (when
// Config.Profile is on), the live flow-trace decomposition at /flows
// (when Config.FlowTrace is on), and net/http/pprof under
// /debug/pprof/. The outputs table declares the documents.
//
// The engine thread renders the documents to bytes at every sampler
// tick and publishes them with one atomic pointer swap; HTTP handlers
// only ever read the latest published bytes. That keeps the
// single-threaded simulation and the concurrent HTTP server decoupled:
// no locks on the engine side, no torn reads on the server side. A
// single Inspector may be shared by every run of a grid — each publish
// is an internally consistent view of whichever run sampled last.
type Inspector struct {
	docs atomic.Pointer[map[string][]byte] // by endpoint

	// srv and ln are set by StartInspector only, for Shutdown.
	srv *http.Server
	ln  net.Listener
}

// NewInspector returns an Inspector with nothing published yet. Hand
// it to Config.Inspector and serve Handler somewhere, or use
// StartInspector to do both.
func NewInspector() *Inspector {
	return &Inspector{}
}

// publish atomically replaces the served documents. Called on the
// engine thread at every sample.
func (i *Inspector) publish(docs map[string][]byte) {
	i.docs.Store(&docs)
}

// Document returns the latest published document served at endpoint
// ("/metrics", "/snapshot", "/profile" or "/flows"), or nil if no run
// has sampled yet or the sampling run has that report off.
func (i *Inspector) Document(endpoint string) []byte {
	if p := i.docs.Load(); p != nil {
		return (*p)[endpoint]
	}
	return nil
}

// Handler returns the inspection mux: an index at /, one handler per
// document endpoint, and /debug/pprof/.
func (i *Inspector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "epnet inspector\n\n")
		for _, out := range outputs {
			if out.endpoint != "" {
				fmt.Fprintf(w, "%-16s%s\n", out.endpoint, out.about)
			}
		}
		fmt.Fprint(w, "/debug/pprof/   Go runtime profiles\n")
	})
	for _, out := range outputs {
		if out.endpoint == "" {
			continue
		}
		mux.HandleFunc(out.endpoint, func(w http.ResponseWriter, r *http.Request) {
			body := i.Document(out.endpoint)
			if body == nil {
				http.Error(w, out.idle, http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", out.ctype)
			w.Write(body)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartInspector listens on addr (e.g. ":9090", or "127.0.0.1:0" for
// an ephemeral port), serves the inspection endpoints in a background
// goroutine, and returns the inspector plus the bound address. The
// listener lives until the process exits or Shutdown is called.
func StartInspector(addr string) (*Inspector, string, error) {
	i := NewInspector()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("epnet: inspector listen: %w", err)
	}
	i.ln = ln
	i.srv = &http.Server{Handler: i.Handler()}
	go i.srv.Serve(ln)
	return i, ln.Addr().String(), nil
}

// Shutdown gracefully stops the HTTP server StartInspector launched,
// waiting for in-flight requests up to ctx's deadline. A no-op on an
// Inspector that is not serving (NewInspector), so CLI teardown can
// call it unconditionally.
func (i *Inspector) Shutdown(ctx context.Context) error {
	if i.srv == nil {
		return nil
	}
	if err := i.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("epnet: inspector shutdown: %w", err)
	}
	return nil
}
