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
//	GET    /metrics              obs counters/gauges/span totals as JSON
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
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"customfit/internal/cli"
	olog "customfit/internal/obs/log"
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
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		olog.Info("draining").Str("tool", "cfp-serve").Dur("timeout", *drainTimeout).Log()
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Drain jobs first so held polls are answered as their jobs
		// end, then close the HTTP side.
		if err := srv.Shutdown(dctx); err != nil {
			olog.Warn("drain timeout, jobs cancelled").Str("tool", "cfp-serve").Log()
		}
		hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer hcancel()
		_ = hs.Shutdown(hctx)
	}()

	olog.Info("listening").Str("tool", "cfp-serve").Str("addr", "http://"+*addr).
		Int("workers", int64(*workers)).Int("queue", int64(*queueDepth)).Log()
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		tool.Fatal(err)
	}
	olog.Info("stopped").Str("tool", "cfp-serve").Log()
}
