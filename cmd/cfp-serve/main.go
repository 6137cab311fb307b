// cfp-serve runs the custom-fit toolchain as an HTTP/JSON service:
// compile, simulate, design-space exploration and custom-fit as
// submittable jobs over a bounded worker pool.
//
// Usage:
//
//	cfp-serve -addr :8717 -cache-dir .cfp-cache
//
// Endpoints (see docs/SERVER.md for the full request/response schema):
//
//	POST   /v1/compile           submit a compile job
//	POST   /v1/simulate          submit a verified simulation job
//	POST   /v1/explore           submit a design-space exploration
//	POST   /v1/fit               submit the custom-fit loop
//	GET    /v1/jobs/{id}         poll a job (state, progress, result;
//	                             ?wait=30s holds it until the job ends)
//	DELETE /v1/jobs/{id}         cancel a job (prompt: the evaluation
//	                             stack is context-threaded end to end)
//	GET    /v1/cache/{shard}/{key}  fleet cache read-through (one entry)
//	POST   /v1/cache/{shard}     fleet cache batched put / has-check
//	                             (both served by fleetcache.Handler, and
//	                             only when a cache is attached)
//	GET    /healthz              liveness (503 while draining), capacity
//	                             and backend fingerprint
//	GET    /metrics              obs counters/gauges/span totals as
//	                             Prometheus text exposition
//
// Identical explore/fit requests coalesce onto one in-flight job, and
// -cache-dir shares the persistent evaluation cache across every
// request, so a warm exploration answers near-instantly and
// bit-identically to the cold one (and to cfp-explore).
//
// A cfp-serve node is also a distributed-exploration worker: point
// `cfp-explore -workers http://h1:8717,http://h2:8717` at a fleet and
// the coordinator shards the grid over POST /v1/explore, using /healthz
// for capacity discovery and fingerprint admission (see
// docs/DISTRIBUTED.md). Give each worker its own -cache-dir to make
// re-runs near-instant.
//
// SIGINT/SIGTERM drains: in-flight jobs finish (up to -drain-timeout,
// then they are cancelled), the cache and telemetry flush, and the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"customfit/internal/cli"
	"customfit/internal/obs"
	"customfit/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8717", "listen address")
		workers      = flag.Int("workers", 2, "concurrent jobs")
		queueDepth   = flag.Int("queue", 16, "queued-job bound (submits beyond it get 503)")
		evalWorkers  = flag.Int("eval-workers", 0, "compile workers per explore/fit job (0 = GOMAXPROCS)")
		maxJobs      = flag.Int("max-jobs", 256, "retained finished jobs before eviction")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "grace period for in-flight jobs on shutdown before they are cancelled")
	)
	tool := cli.NewTool("cfp-serve", cli.WithCache())
	flag.Parse()
	if err := tool.Start(); err != nil {
		tool.Fatal(err)
	}
	defer tool.Close()

	cache, err := tool.OpenCache()
	if err != nil {
		tool.Fatal(err)
	}
	srv := serve.New(serve.Options{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		EvalParallelism: *evalWorkers,
		Cache:           cache,
		MaxJobs:         *maxJobs,
	})
	// Bind before logging "listening", so the line names the port
	// actually bound (-addr :0 picks one) and a taken port logs nothing.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		tool.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		obs.Log().LogAttrs(context.Background(), slog.LevelInfo, "draining",
			slog.String("tool", "cfp-serve"), slog.Duration("timeout", *drainTimeout))
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Drain jobs first so held polls are answered as their jobs
		// end, then close the HTTP side.
		if err := srv.Shutdown(dctx); err != nil {
			obs.Log().LogAttrs(context.Background(), slog.LevelWarn, "drain timeout, jobs cancelled",
				slog.String("tool", "cfp-serve"))
		}
		hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer hcancel()
		_ = hs.Shutdown(hctx)
	}()

	obs.Log().LogAttrs(ctx, slog.LevelInfo, "listening",
		slog.String("tool", "cfp-serve"), slog.String("addr", "http://"+ln.Addr().String()),
		slog.Int("workers", *workers), slog.Int("queue", *queueDepth))
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		tool.Fatal(err)
	}
	obs.Log().LogAttrs(context.Background(), slog.LevelInfo, "stopped", slog.String("tool", "cfp-serve"))
}
