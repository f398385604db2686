package obs

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	ftrace "repro/internal/obs/trace"
)

// published guards against double-Publish of the same expvar name (expvar
// panics on duplicates, and tests may wire several sinks in one process).
var (
	publishMu sync.Mutex
	published = map[string]*expvar.Func{}
	current   = map[string]*Sink{}
)

// Publish exposes the sink's live Report as an expvar under name. Publishing
// the same name again rebinds it to the new sink (the expvar layer keeps one
// Func; the Func reads whichever sink is current).
func (s *Sink) Publish(name string) {
	publishMu.Lock()
	defer publishMu.Unlock()
	current[name] = s
	if published[name] != nil {
		return
	}
	f := expvar.Func(func() any {
		publishMu.Lock()
		sink := current[name]
		publishMu.Unlock()
		return sink.Report()
	})
	published[name] = &f
	expvar.Publish(name, f)
}

// shutdownTimeout bounds how long Close waits for in-flight handlers before
// force-closing their connections. Live trace captures watch the quit channel,
// so they abort well inside this window.
const shutdownTimeout = 5 * time.Second

// DebugServer is a live pprof/expvar endpoint for the long-running CLIs.
type DebugServer struct {
	srv  *http.Server
	ln   net.Listener
	Addr string // concrete listen address (resolves ":0")

	quit      chan struct{} // closed by Close; long-running handlers must watch it
	closeOnce sync.Once
	closeErr  error
}

// ServeDebug starts an HTTP server on addr exposing:
//
//	/debug/pprof/...  the standard net/http/pprof profile endpoints
//	/debug/vars       expvar (including the published "cypress" report)
//	/debug/obs        the sink's Report as standalone indented JSON
//
// The server runs on its own goroutine until Close. The sink may be nil;
// pprof endpoints still work (the process can always be profiled), /debug/obs
// then serves an empty report.
func ServeDebug(addr string, s *Sink) (*DebugServer, error) {
	return ServeDebugTrace(addr, s, nil)
}

// ServeDebugTrace is ServeDebug plus a live flight-recorder capture endpoint:
//
//	/debug/cypress/trace?sec=N
//
// marks the recorder's current time, waits N seconds (default 1, capped at
// 60), and serves the events recorded since the mark as Chrome trace-event
// JSON — a window into the running pipeline, loadable in Perfetto. With a nil
// recorder the endpoint answers 404. The wait aborts early when the server is
// closed, so a pending capture never stalls Close.
func ServeDebugTrace(addr string, s *Sink, rec *ftrace.Recorder) (*DebugServer, error) {
	s.Publish("cypress")
	quit := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.Report().WriteJSON(w)
	})
	mux.HandleFunc("/debug/cypress/trace", func(w http.ResponseWriter, r *http.Request) {
		if !rec.Enabled() {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		sec := 1
		if v := r.URL.Query().Get("sec"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad sec=%q", v), http.StatusBadRequest)
				return
			}
			sec = n
		}
		if sec > 60 {
			sec = 60
		}
		since := rec.Now()
		if sec > 0 {
			t := time.NewTimer(time.Duration(sec) * time.Second)
			defer t.Stop()
			select {
			case <-t.C:
			case <-quit:
				http.Error(w, "debug server closing", http.StatusServiceUnavailable)
				return
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = rec.WriteChromeJSONSince(w, since)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ds := &DebugServer{
		srv:  &http.Server{Handler: mux},
		ln:   ln,
		Addr: ln.Addr().String(),
		quit: quit,
	}
	go func() { _ = ds.srv.Serve(ln) }()
	return ds, nil
}

// Close shuts the debug server down gracefully: it stops accepting new
// connections, signals long-running handlers (live trace captures) to abort,
// and waits up to shutdownTimeout for in-flight requests to drain before
// force-closing whatever remains. Safe to call more than once.
func (d *DebugServer) Close() error {
	d.closeOnce.Do(func() {
		close(d.quit)
		// Close the listener directly: Shutdown only closes listeners the
		// serve goroutine has already registered, so shutting down right
		// after ServeDebug returns could otherwise leave the port bound.
		_ = d.ln.Close()
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		err := d.srv.Shutdown(ctx)
		if errors.Is(err, net.ErrClosed) {
			// Shutdown closed the listener closed above a second time; it
			// still drained every connection before returning.
			err = nil
		}
		if err != nil {
			// Deadline hit with handlers still running: sever them.
			if cerr := d.srv.Close(); err == context.DeadlineExceeded && cerr != nil {
				err = cerr
			}
		}
		d.closeErr = err
	})
	return d.closeErr
}
