// Command regionwizd serves the RegionWiz analysis as a long-running
// HTTP daemon with a content-addressed result cache and bounded
// admission control: repeated identical requests are answered from
// cache, concurrent identical requests share one pipeline run, and
// overload degrades into fast 429 responses instead of unbounded
// goroutines.
//
// Usage:
//
//	regionwizd [flags]
//
// Endpoints:
//
//	POST /v1/analyze   {"sources": {"path": "content", ...},
//	                    "options": {"entry": "main", "api": "both", ...},
//	                    "trace": bool}
//	                   -> {"cached": bool, "key": "...", "report": {...},
//	                       "trace": {...}}
//	                   (report schema "regionwiz/report/v1"; the trace
//	                   key is present only when requested and carries a
//	                   Chrome trace_event document, schema
//	                   "regionwiz/trace/v1")
//	                   Delta form (schema "regionwiz/delta/v1"): instead
//	                   of "sources", send {"base": "<key of a prior
//	                   response>", "changed": {"path": "content", ...},
//	                   "removed": ["path", ...]} — the daemon reuses the
//	                   base run's per-file front end and answers with the
//	                   same report the full request would produce plus a
//	                   "delta" block. Any key still in the result cache
//	                   is a base; an evicted one answers 409 with kind
//	                   "snapshot_gone"; resend the full sources.
//	GET  /v1/explain   ?key=<analyze response key>&warning=<1-based id|all>
//	                   -> {"schema": "regionwiz/explain/v1", "key": "...",
//	                       "warnings_total": N, "explanations": [...]}
//	                   why-provenance: each explanation is the derivation
//	                   tree from the warning's instruction pair back to
//	                   base facts with source positions. Explanations are
//	                   keyed off the result cache; an evicted key answers
//	                   409 with kind "snapshot_gone" — re-run the analysis
//	                   (the key is content-addressed and comes back
//	                   identical) and retry. Trees are read off the
//	                   cached result's region tree, identical on both
//	                   backends.
//	GET  /v1/query     ?key=<analyze response key>&src=<file:line[:col]>
//	                   &dst=<file:line[:col]>
//	                   -> {"schema": "regionwiz/query/v1", "key": "...",
//	                       "answer": {...}}
//	                   pair verdict: whether objects allocated at src
//	                   may hold dangling pointers into objects
//	                   allocated at dst, read from the cached result
//	                   without re-running the analysis. The verdict
//	                   always agrees with the report.
//	                   Evicted keys answer 409 ("snapshot_gone"); an
//	                   unknown allocation site answers 422. Throttled
//	                   runs (points-to cap, capped contexts, origin
//	                   policy) carry "throttled": true in the answer.
//	GET  /v1/healthz   liveness probe
//	GET  /v1/metrics   Prometheus text exposition, derived from the
//	                   service's span names:
//	                   regionwizd_requests_total{path,outcome},
//	                   regionwizd_span_duration_seconds{span},
//	                   regionwizd_span_alloc_bytes_total{span},
//	                   regionwizd_inflight, regionwizd_queued,
//	                   regionwizd_cache_entries and
//	                   regionwizd_cache_evictions_total (README lists
//	                   the labels and bucket bounds)
//	GET  /v1/stats     the same counters as JSON
//
// healthz, metrics and stats answer GET and HEAD; other methods get 405.
//
// Logs are structured (log/slog, logfmt-style text): every request
// gets a short random id carried through handler spans, and access
// lines keep the method/path/status/wall fields. 4xx/5xx responses
// also log a "request failed" line and echo the id in the error body's
// "request_id" field, so a failure response correlates directly with
// its log lines.
//
// Flags:
//
//	-addr host:port       listen address (default "127.0.0.1:8747"); the
//	                      "listening" log line names the bound address,
//	                      so port 0 picks a free port
//	-workers N            concurrent pipeline runs (default GOMAXPROCS)
//	-queue-depth N        waiting requests beyond the pool (default 64)
//	-cache-entries N      LRU result cache size (default 128; -1 disables);
//	                      a key answers explain, query and delta requests
//	                      while its result is cached
//	-request-timeout D    per-request deadline, queue wait included (default 2m)
//	-pprof-addr host:port serve net/http/pprof on a SEPARATE listener
//	                      (off by default; keep it on localhost — the
//	                      profiling endpoints are not authenticated);
//	                      the "pprof listening" line names the bound
//	                      address, and a port that cannot be bound
//	                      stops the daemon with status 1
//	-log-level level      debug, info, warn, or error (default info)
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole daemon: it parses args, serves until ctx ends, logs
// to stderr, and returns the exit status.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("regionwizd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8747", "listen address")
	workers := fs.Int("workers", 0, "concurrent pipeline runs (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 64, "waiting requests beyond the worker pool")
	cacheEntries := fs.Int("cache-entries", 128, "LRU result cache size (-1 disables caching)")
	requestTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request deadline including queue wait (0 = none)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, or error")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "regionwizd: bad -log-level %q: %v\n", *logLevel, err)
		return 2
	}
	logger := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	// Bind before logging "listening", so the line names the bound
	// address (the port -addr :0 chose) and a port clash logs no such
	// line. The pprof listener, when asked for, binds first too.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "regionwizd: %v\n", err)
		return 1
	}
	var pprofLn net.Listener
	if *pprofAddr != "" {
		if pprofLn, err = net.Listen("tcp", *pprofAddr); err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "regionwizd: pprof: %v\n", err)
			return 1
		}
	}
	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		CacheEntries:   *cacheEntries,
		RequestTimeout: *requestTimeout,
	})
	server := &http.Server{
		Handler:           logRequests(logger, service.NewHandler(svc)),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()
	logger.Info("listening",
		"addr", ln.Addr().String(), "workers", *workers, "queue", *queueDepth,
		"cache", *cacheEntries, "timeout", *requestTimeout)

	var pprofServer *http.Server
	if pprofLn != nil {
		// An explicit mux on a separate listener: the profiling
		// endpoints never share a port with the analysis API, so an
		// exposed -addr does not also expose pprof.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofServer = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := pprofServer.Serve(pprofLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server failed", "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", pprofLn.Addr().String())
	}

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := server.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		if pprofServer != nil {
			pprofServer.Shutdown(ctx)
		}
		svc.Close()
		st := svc.Stats()
		logger.Info("served",
			"requests", st.Requests, "hits", st.Hits, "misses", st.Misses,
			"coalesced", st.Coalesced, "overloads", st.Overloads)
		return 0
	case err := <-errCh:
		svc.Close()
		fmt.Fprintf(stderr, "regionwizd: %v\n", err)
		return 1
	}
}

// idSource generates short random request ids (not cryptographic —
// they only correlate log lines and trace spans).
var idSource = struct {
	mu sync.Mutex
	r  *rand.Rand
}{r: rand.New(rand.NewSource(time.Now().UnixNano()))}

func newRequestID() string {
	var b [6]byte
	idSource.mu.Lock()
	idSource.r.Read(b[:])
	idSource.mu.Unlock()
	return hex.EncodeToString(b[:])
}

// logRequests is the access log: method, path, status, wall — the same
// fields the daemon always logged, now as structured attributes plus a
// per-request id that also reaches handler spans via the context.
func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := newRequestID()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(service.WithRequestID(r.Context(), id)))
		logger.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"wall", time.Since(t0).Round(time.Microsecond).String())
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
