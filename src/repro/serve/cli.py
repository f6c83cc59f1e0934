"""CLI verbs of the experiment job service: serve, worker, submit, status, stats, top, cancel.

Registered into the main ``python -m repro`` parser by
:func:`register_serve_commands`; the client-side verbs talk to a running
service through :class:`~repro.serve.client.ServeClient`.

Exit codes (``repro submit --wait`` is the scriptable one):

====  =========================================================
0     submitted (and, with ``--wait``, the job finished ``done``)
1     the job finished ``failed`` or ``cancelled``
2     bad arguments, unknown experiment, or no service reachable
124   ``--wait --timeout`` expired before the job finished
====  =========================================================
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from typing import Any, Sequence

from repro.analytic.fidelity import DEFAULT_FIDELITY, FIDELITY_CHOICES

DEFAULT_DB = ".repro-cache/serve.db"


class _ShutdownFlag:
    """The SIGINT/SIGTERM handler of ``repro serve`` and ``repro worker``.

    A handler runs on the main thread between two bytecodes, possibly while
    that thread holds a lock inside a wait.  Setting a ``threading.Event``
    (or waking a worker) takes a lock, and blocks forever if the
    interrupted thread holds it.  So the handler only assigns an attribute,
    and the main loops read :meth:`is_set` once per wait step.
    """

    def __init__(self) -> None:
        self.requested = False

    def __call__(self, signum: int, frame: Any) -> None:
        self.requested = True

    def is_set(self) -> bool:
        return self.requested

    def install(self) -> dict[int, Any]:
        """Handle SIGINT and SIGTERM; returns the handlers it replaced."""
        return {
            sig: signal.signal(sig, self)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }


# ---------------------------------------------------------------------------
# repro serve
# ---------------------------------------------------------------------------

def cmd_serve(args: argparse.Namespace) -> int:
    """Run the persistent job service until SIGINT/SIGTERM, then drain."""
    import os

    from repro.api.request import RunOptions
    from repro.obs import set_trace_defaults
    from repro.obs.sink import ProcessTelemetry
    from repro.serve.http_api import ExperimentServer
    from repro.serve.scheduler import Scheduler
    from repro.serve.store import JobStore
    from repro.serve.supervisor import WorkerSupervisor
    from repro.utils.logging import service_log

    # Every span and JSON log line this process emits carries the front-end
    # identity; the telemetry agent spools spans + metrics beside the DB.
    frontend_id = f"serve:{os.getpid()}"
    set_trace_defaults(worker_id=frontend_id)
    telemetry = ProcessTelemetry(args.db, worker_id=frontend_id).start()

    store = JobStore(args.db)
    options = RunOptions(use_cache=not args.no_cache, cache_dir=args.cache_dir)
    # With a worker fleet the supervisor process runs front-end only
    # (concurrency=0): execution, reaping and retries belong to the worker
    # processes; the scheduler recovers the store and accepts submissions.
    concurrency = 0 if args.fleet else args.concurrency
    scheduler = Scheduler(
        store,
        options=options,
        concurrency=concurrency,
        retry_base_delay=args.retry_delay,
        lease_ttl=args.lease_ttl,
        quarantine_after=args.requeue_cap,
    )
    # Bind the port *before* recovery/worker startup: the port doubles as the
    # mutual-exclusion guard, so a second `repro serve` on the same DB dies
    # here without having requeued (and re-run) a live service's jobs.
    try:
        server = ExperimentServer(
            scheduler,
            host=args.host,
            port=args.port,
            max_queue_depth=args.max_queue,
        )
    except OSError as exc:
        store.close()
        telemetry.stop()
        set_trace_defaults(worker_id=None)
        print(
            f"error: cannot bind {args.host}:{args.port} ({exc}); "
            "is another repro serve already running?",
            file=sys.stderr,
        )
        return 2
    recovered = scheduler.start()

    supervisor = None
    if args.fleet:
        supervisor = WorkerSupervisor(
            db=args.db,
            count=args.fleet,
            lease_ttl=args.lease_ttl,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
            quarantine_after=args.requeue_cap,
            retry_delay=args.retry_delay,
        )
        supervisor.start()
        server.supervisor = supervisor

    stop = _ShutdownFlag()
    previous = stop.install()
    http_thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    http_thread.start()
    execution = (
        f"fleet={args.fleet} worker process(es), lease_ttl={args.lease_ttl}s"
        if args.fleet
        else f"concurrency={args.concurrency}"
    )
    service_log(
        f"repro serve: listening on {server.url} (db={args.db}, {execution})"
    )
    if recovered:
        service_log(
            f"recovered {recovered} interrupted job(s) back into the queue",
            recovered=recovered,
        )
    try:
        while not stop.is_set():  # set by the signal handler, read every 50 ms
            time.sleep(0.05)
    finally:
        service_log("repro serve: draining (running jobs finish, queue persists)")
        server.shutdown()
        server.server_close()
        drained = True
        if supervisor is not None:
            drained = supervisor.stop(timeout=args.drain_timeout)
        drained = scheduler.stop(timeout=args.drain_timeout) and drained
        if drained:
            # With a job still running past --drain-timeout, the store stays
            # open: the worker (a daemon thread) may yet persist its result,
            # and the job is requeued by crash recovery on the next start.
            store.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        telemetry.stop()
        # Drop the process-wide identity: in-process callers (tests, library
        # embedding) must not keep stamping spans as this service.
        set_trace_defaults(worker_id=None)
        service_log(
            "repro serve: drained cleanly"
            if drained
            else "repro serve: drain timed out with jobs still running"
        )
    return 0 if drained else 1


# ---------------------------------------------------------------------------
# repro worker
# ---------------------------------------------------------------------------

def cmd_worker(args: argparse.Namespace) -> int:
    """Run one lease-based worker process against a shared job store."""
    from repro.api.request import RunOptions
    from repro.obs import set_trace_defaults
    from repro.obs.sink import ProcessTelemetry
    from repro.serve.store import JobStore, default_worker_id
    from repro.serve.worker import Worker
    from repro.utils.logging import service_log

    worker_id = args.worker_id or default_worker_id()
    # Process-wide identity: spans recorded outside a job's trace context
    # (and JSON log lines) still carry this worker's id; the telemetry agent
    # spools every span into the per-DB obs directory.
    set_trace_defaults(worker_id=worker_id)
    telemetry = ProcessTelemetry(args.db, worker_id=worker_id).start()

    store = JobStore(args.db)
    options = RunOptions(use_cache=not args.no_cache, cache_dir=args.cache_dir)
    worker = Worker(
        store,
        options=options,
        worker_id=worker_id,
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat_interval,
        poll_interval=args.poll_interval,
        retry_base_delay=args.retry_delay,
        quarantine_after=args.requeue_cap,
        log=service_log,
    )

    stop = _ShutdownFlag()
    previous = stop.install()
    try:
        worker.run(stop=stop, max_jobs=args.max_jobs, idle_exit=args.idle_exit)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        store.close()
        telemetry.stop()
        set_trace_defaults(worker_id=None)
    return 0


# ---------------------------------------------------------------------------
# repro submit
# ---------------------------------------------------------------------------

def cmd_submit(args: argparse.Namespace) -> int:
    from repro.cli import request_from_args
    from repro.serve.client import ServeClient, ServeError

    try:
        request = request_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = ServeClient(args.url)
    try:
        response = client.submit(
            request,
            priority=args.priority,
            max_retries=args.max_retries,
            deadline_s=args.deadline,
        )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    job = response["job"]
    how = (
        "deduped (attached to existing job)"
        if response["deduped"]
        else "queued (new job)"
    )
    print(
        f"job {job['id'][:12]} [{request.experiment}] {job['state']} — {how}; "
        f"submissions={job['submissions']} executions={job['executions']}"
    )
    if not args.wait:
        return 0
    try:
        job = client.wait(job["id"], timeout=args.timeout)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 124
    if job["state"] == "done":
        result = job.get("result") or {}
        summary = result.get("summary")
        if summary:
            print(summary)
        print(f"job {job['id'][:12]} done in {_elapsed(job)}")
        return 0
    print(
        f"job {job['id'][:12]} {job['state']}"
        + (f": {job['error']}" if job.get("error") else ""),
        file=sys.stderr,
    )
    return 1


def _elapsed(job: dict[str, Any]) -> str:
    started, finished = job.get("started_at"), job.get("finished_at")
    if started is None or finished is None:
        return "?"
    return f"{finished - started:.2f}s"


# ---------------------------------------------------------------------------
# repro status / cancel
# ---------------------------------------------------------------------------

def _format_job_line(job: dict[str, Any]) -> str:
    timings = job.get("timings") or {}
    stage = f" [{'/'.join(timings)}]" if timings and job["state"] == "running" else ""
    error = f" error={job['error']!r}" if job.get("error") else ""
    return (
        f"{job['id'][:12]}  {job['experiment']:<12} {job['state']:<9} "
        f"prio={job['priority']:<3} subs={job['submissions']} "
        f"execs={job['executions']}{stage}{error}"
    )


def cmd_status(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        if args.job:
            job = client.job(args.job)
            if args.json:
                print(json.dumps(job, indent=2))
            else:
                print(_format_job_line(job))
                for stage, seconds in (job.get("timings") or {}).items():
                    print(f"  {stage:<10} {seconds:.3f}s")
                result = job.get("result") or {}
                if result.get("summary"):
                    print()
                    print(result["summary"])
            return 0
        health = client.health()
        jobs = client.jobs(state=args.state, limit=args.limit)
        if args.json:
            print(json.dumps({"health": health, "jobs": jobs}, indent=2))
            return 0
        counts = " ".join(
            f"{state}={n}" for state, n in health["jobs"].items() if n
        )
        print(
            f"service up {health['uptime_s']:.0f}s, "
            f"concurrency={health['scheduler']['concurrency']}: "
            f"{counts or 'no jobs'}"
        )
        for job in jobs:
            print(_format_job_line(job))
        return 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _format_stats(
    stats: dict[str, Any],
    previous: dict[str, Any] | None = None,
    interval: float | None = None,
) -> str:
    """Human-readable rendering of the ``/stats`` snapshot.

    With a ``previous`` snapshot and the ``interval`` that separates the
    two, a ``rate:`` line shows per-second deltas of the job counters — so
    ``repro stats --watch`` reports what happened *this interval*, not just
    the monotonic totals.
    """
    from repro.serve.top import format_rates, job_rates

    lines = [
        f"service v{stats.get('version', '?')} up {stats.get('uptime_s', 0):.0f}s"
    ]
    queue = stats.get("queue") or {}
    lines.append(
        "queue: " + " ".join(f"{state}={n}" for state, n in queue.items())
    )
    jobs = stats.get("jobs") or {}
    lines.append(
        "jobs:  "
        + " ".join(f"{name}={value}" for name, value in jobs.items())
    )
    rates = job_rates(stats, previous, interval)
    if rates:
        lines.append("rate:  " + format_rates(rates))
    scheduler = stats.get("scheduler") or {}
    last = scheduler.get("last_dequeue_at")
    lines.append(
        f"sched: workers_alive={scheduler.get('workers_alive', '?')} "
        f"concurrency={scheduler.get('concurrency', '?')} "
        f"last_dequeue={'never' if last is None else f'{last:.0f}'}"
    )
    stages = stats.get("stages") or {}
    if stages:
        lines.append(f"{'stage':<10} {'count':>6} {'p50':>10} {'p95':>10}")
        for stage, info in stages.items():
            p50, p95 = info.get("p50"), info.get("p95")
            lines.append(
                f"{stage:<10} {info.get('count', 0):>6} "
                f"{p50 if p50 is None else f'{p50:.3f}s':>10} "
                f"{p95 if p95 is None else f'{p95:.3f}s':>10}"
            )
    caches = stats.get("caches") or {}
    for cache, info in caches.items():
        rate = info.get("hit_rate")
        lines.append(
            f"cache {cache}: hits={info.get('hits', 0)} "
            f"misses={info.get('misses', 0)} "
            f"hit_rate={'n/a' if rate is None else f'{rate:.0%}'}"
        )
    analytic = stats.get("analytic") or {}
    if analytic:
        error = analytic.get("validate_max_rel_error")
        lines.append(
            f"analytic: points_evaluated={analytic.get('points_evaluated', 0)} "
            f"validate_max_rel_error="
            f"{'n/a' if error is None else f'{error:.3e}'}"
        )
    return "\n".join(lines)


def cmd_stats(args: argparse.Namespace) -> int:
    """Show (or watch) a running service's telemetry snapshot."""
    import time as _time

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    previous: dict[str, Any] | None = None
    try:
        while True:
            stats = client.stats()
            if args.json:
                print(json.dumps(stats, indent=2))
            else:
                print(_format_stats(stats, previous, args.interval))
            if not args.watch:
                return 0
            previous = stats
            _time.sleep(args.interval)
            print()
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


# ---------------------------------------------------------------------------
# repro top
# ---------------------------------------------------------------------------

def cmd_top(args: argparse.Namespace) -> int:
    """Live fleet dashboard: queue, rates, workers, stage latencies."""
    import time as _time

    from repro.serve.client import ServeClient, ServeError, ServeUnavailableError
    from repro.serve.top import ANSI_CLEAR, render_top

    client = ServeClient(args.url)
    previous: dict[str, Any] | None = None
    try:
        while True:
            try:
                stats = client.stats()
                health = client.health()
            except ServeUnavailableError as exc:
                if args.once:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                # The service blinking (restart, respawn) must not kill the
                # dashboard; show the outage and keep polling.
                print(f"{ANSI_CLEAR}repro top — {exc}", flush=True)
                _time.sleep(args.interval)
                continue
            frame = render_top(
                stats, health, previous, interval=args.interval
            )
            if args.once:
                print(frame)
                return 0
            print(f"{ANSI_CLEAR}{frame}", flush=True)
            previous = stats
            _time.sleep(args.interval)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        response = client.cancel(args.job)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    job = response["job"]
    if response["cancelled"]:
        print(f"job {job['id'][:12]} cancelled")
        return 0
    print(
        f"job {job['id'][:12]} is {job['state']} and was not cancelled "
        "(only queued jobs can be)",
        file=sys.stderr,
    )
    return 1


def cmd_requeue(args: argparse.Namespace) -> int:
    """Release a quarantined (or failed/cancelled) job back to the queue."""
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        response = client.requeue(args.job)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    job = response["job"]
    if response["requeued"]:
        print(
            f"job {job['id'][:12]} requeued "
            f"(crash-loop counter reset, retry budget fresh)"
        )
        return 0
    print(
        f"job {job['id'][:12]} is {job['state']} and was not requeued "
        "(only quarantined/failed/cancelled jobs can be)",
        file=sys.stderr,
    )
    return 1


# ---------------------------------------------------------------------------
# repro chaos
# ---------------------------------------------------------------------------

def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded fault-injection drill against a real worker fleet."""
    from repro.serve.chaos import run_chaos

    report = run_chaos(
        seed=args.seed,
        fleet=args.fleet,
        smoke=args.smoke,
        db=args.db,
        out=args.out,
        log=lambda message: print(message, flush=True),
    )
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def register_serve_commands(
    sub: "argparse._SubParsersAction", default_cache_dir: str
) -> None:
    """Add the serve/submit/status/cancel subparsers to the main CLI."""
    from repro.serve.client import DEFAULT_URL
    from repro.serve.http_api import DEFAULT_HOST, DEFAULT_PORT
    from repro.serve.store import DEFAULT_REQUEUE_CAP

    serve = sub.add_parser(
        "serve", help="run the persistent experiment job service"
    )
    serve.add_argument("--host", default=DEFAULT_HOST)
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument(
        "--db", default=DEFAULT_DB,
        help="SQLite job-store path (default: %(default)s)",
    )
    serve.add_argument(
        "--concurrency", type=int, default=1, metavar="N",
        help="jobs executed at once (default: %(default)s)",
    )
    serve.add_argument(
        "--retry-delay", type=float, default=0.5, metavar="SECONDS",
        help="base delay of the exponential retry backoff (default: %(default)s)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        help="give up draining after this long (default: wait forever)",
    )
    serve.add_argument(
        "--cache-dir", default=default_cache_dir,
        help="persistent stage-cache directory (default: %(default)s)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent stage caches",
    )
    serve.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="spawn N `repro worker` processes and run front-end only "
             "(default: 0 — execute in-process with --concurrency threads)",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="job-lease duration; a dead worker's jobs requeue after this "
             "long without heartbeats (default: %(default)s)",
    )
    serve.add_argument(
        "--requeue-cap", type=int, default=DEFAULT_REQUEUE_CAP, metavar="N",
        help="quarantine a job after its lease expires N+1 times "
             "(crash-loop guard; default: %(default)s)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="refuse new submissions (503 + Retry-After) once N jobs are "
             "queued (default: unbounded)",
    )
    serve.set_defaults(func=cmd_serve)

    worker = sub.add_parser(
        "worker", help="run one lease-based job worker process"
    )
    worker.add_argument(
        "--db", default=DEFAULT_DB,
        help="shared SQLite job-store path (default: %(default)s)",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="lease identity (default: <host>:<pid>)",
    )
    worker.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="job-lease duration (default: %(default)s)",
    )
    worker.add_argument(
        "--heartbeat-interval", type=float, default=None, metavar="SECONDS",
        help="lease-extension cadence (default: lease-ttl / 3)",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="longest wait between queue checks while the store does not "
             "change, and the idle heartbeat cadence (default: %(default)s)",
    )
    worker.add_argument(
        "--retry-delay", type=float, default=0.5, metavar="SECONDS",
        help="base delay of the exponential retry backoff (default: %(default)s)",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after executing N jobs (default: run until signalled)",
    )
    worker.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="exit after this long with an empty queue (default: never)",
    )
    worker.add_argument(
        "--cache-dir", default=default_cache_dir,
        help="persistent stage-cache directory (default: %(default)s)",
    )
    worker.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent stage caches",
    )
    worker.add_argument(
        "--requeue-cap", type=int, default=DEFAULT_REQUEUE_CAP, metavar="N",
        help="quarantine a job after its lease expires N+1 times "
             "(crash-loop guard; default: %(default)s)",
    )
    worker.set_defaults(func=cmd_worker)

    submit = sub.add_parser(
        "submit", help="submit an experiment to a running service"
    )
    submit.add_argument("experiment", help="registered experiment name")
    submit.add_argument(
        "--workloads", default=None,
        help="comma-separated <model>/<dataset> pairs (default: the experiment's grid)",
    )
    submit.add_argument("--pruning-rate", type=float, default=0.9)
    submit.add_argument(
        "--scale", choices=("quick", "thorough", "smoke"), default="quick"
    )
    submit.add_argument(
        "--smoke", action="store_true", help="shorthand for --scale smoke"
    )
    submit.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="experiment-specific parameter (JSON values accepted; repeatable)",
    )
    submit.add_argument(
        "--fidelity", choices=FIDELITY_CHOICES, default=DEFAULT_FIDELITY.value,
        help="cost-model tier (content-hash-affecting: tiers dedup separately)",
    )
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--max-retries", type=int, default=0,
        help="failed executions retried with exponential backoff",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes; exit 0 done / 1 failed",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="--wait deadline (default: wait forever)",
    )
    submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-execution wall-clock budget; the job fails with "
             "DeadlineExceeded at the next stage boundary past it "
             "(default: none)",
    )
    submit.add_argument("--url", default=DEFAULT_URL, help="service URL")
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser(
        "status", help="show service health and job states"
    )
    status.add_argument(
        "job", nargs="?", default=None,
        help="job id (or unique prefix) for a detailed view",
    )
    status.add_argument(
        "--state", default=None,
        help="filter the listing by state (queued/running/done/failed/cancelled)",
    )
    status.add_argument("--limit", type=int, default=20)
    status.add_argument("--json", action="store_true")
    status.add_argument("--url", default=DEFAULT_URL, help="service URL")
    status.set_defaults(func=cmd_status)

    stats = sub.add_parser(
        "stats", help="show a running service's telemetry snapshot"
    )
    stats.add_argument(
        "--watch", action="store_true", help="refresh continuously until Ctrl-C"
    )
    stats.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="--watch refresh interval (default: %(default)s)",
    )
    stats.add_argument("--json", action="store_true", help="print the raw snapshot")
    stats.add_argument("--url", default=DEFAULT_URL, help="service URL")
    stats.set_defaults(func=cmd_stats)

    top = sub.add_parser(
        "top", help="live fleet dashboard (queue, rates, workers, latencies)"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default: %(default)s)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (no screen clearing; scriptable)",
    )
    top.add_argument("--url", default=DEFAULT_URL, help="service URL")
    top.set_defaults(func=cmd_top)

    cancel = sub.add_parser("cancel", help="cancel a queued job")
    cancel.add_argument("job", help="job id (or unique prefix)")
    cancel.add_argument("--url", default=DEFAULT_URL, help="service URL")
    cancel.set_defaults(func=cmd_cancel)

    requeue = sub.add_parser(
        "requeue",
        help="release a quarantined job back to the queue",
    )
    requeue.add_argument("job", help="job id (or unique prefix)")
    requeue.add_argument("--url", default=DEFAULT_URL, help="service URL")
    requeue.set_defaults(func=cmd_requeue)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection drill: run a seeded fault plan against a "
             "real worker fleet and check the service's invariants",
    )
    chaos.add_argument(
        "--smoke", action="store_true",
        help="small fast plan suitable for CI (fewer jobs, short timeouts)",
    )
    chaos.add_argument(
        "--fleet", type=int, default=2, metavar="N",
        help="worker processes to run the drill against (default: %(default)s)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed — same seed, same faults (default: %(default)s)",
    )
    chaos.add_argument(
        "--db", default=None, metavar="PATH",
        help="job-store path for the drill (default: a fresh temp file)",
    )
    chaos.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON chaos report here (default: stdout only)",
    )
    chaos.set_defaults(func=cmd_chaos)


__all__ = [
    "DEFAULT_DB",
    "cmd_cancel",
    "cmd_chaos",
    "cmd_requeue",
    "cmd_serve",
    "cmd_stats",
    "cmd_status",
    "cmd_submit",
    "cmd_top",
    "cmd_worker",
    "register_serve_commands",
]
