"""One benchmark run: a user's session of paper figures, a design sweep and jobs.

Each run drives the program the way its users do, every step a child
process or an HTTP call:

* figures -- ``repro run fig8`` on an empty density cache (it trains one
  reduced model per family), then warm ``fig8``/``fig9`` commands that reuse
  the cache;
* sweep -- default-fidelity ``repro sweep`` commands on empty sweep caches,
  the identical command on a filled cache (every point a cache hit), and
  analytic sweeps over a much larger grid;
* serve -- ``repro serve`` (in-process scheduler) or ``repro serve --fleet 2``
  (worker processes), started three times to time set-up, then a closed
  loop of two client threads calling ``ServeClient.submit`` and
  ``ServeClient.wait``.

Outputs are checked after each phase, outside the timed commands.  With
tracing on, every CLI command of a phase runs twice back to back, untraced
and then under :mod:`perfbench.traced_cli`, and the serve phase records
client-side spans and reads the service's own job rows, merged traces and
counters.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from perfbench.plan import request_of
from perfbench.procs import Children, Finished, free_port
from perfbench.stats import covered, layer_self_times, percentile, summarize
from perfbench.tracing import Recorder, read_spans

PY = sys.executable

#: The paper's reported averages (and the AlexNet/CIFAR-10 maximum).
PAPER_MEAN_SPEEDUP = 2.7
PAPER_MEAN_EFFICIENCY = 2.2
PAPER_MAX_SPEEDUP = 4.5

FLEET_SIZE = 2
SETUP_REPEATS = 3
SWEEP_REPEATS = 2  # sweeps of each kind per timed run; the metric is their median
MIN_JOBS = 100  # ten samples must lie beyond the p90
LOAD_OVERRUN_S = 60.0  # stop the load loop this long after --seconds regardless
READY_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
CLIENT_THREADS = 2

LAYERS = ("cli", "api", "eval", "dataflow", "arch", "sim", "explore", "analytic", "serve", "obs")
# Server-side span names of the merged job trace, by the layer they belong to.
SERVER_SPAN_LAYERS = {"queue": "serve", "worker": "serve", "pipeline": "api", "stage": "api"}


class Ledger:
    """Operations attempted and the ones that failed, with the reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def _csv(values) -> str:
    return ",".join(str(value) for value in values)


def _pairs(workloads) -> str:
    return ",".join(f"{model}/{dataset}" for model, dataset in workloads)


def _load_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


class Session:
    """The state of one run: its plan, processes, ledger and measurements."""

    def __init__(self, plan: dict, seconds: float, traced: bool, run_dir: Path,
                 children: Children) -> None:
        self.plan = plan
        self.fleet = plan["workload"] == "serve-fleet"
        self.seconds = seconds
        self.traced = traced
        self.dir = run_dir
        self.children = children
        self.ledger = Ledger()
        self.recorder = Recorder()
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.notes: dict[str, Any] = {}
        self.tail_levels: dict[str, float] = {}
        # (phase, cli.process span id, spans dir) of every traced command.
        self.traced_commands: list[tuple[str, str, Path]] = []
        self.samples: list[dict] = []
        self.spans: list[dict] = []
        self.untraced_walls: list[float] = []
        self.traced_walls: list[float] = []
        self._dirs = 0

    # ------------------------------------------------------------------
    def fresh_dir(self, name: str) -> Path:
        """A new directory of the run (and its twin's mirror in traced runs)."""
        self._dirs += 1
        path = self.dir / f"{self._dirs:02d}-{name}"
        path.mkdir(parents=True)
        if self.traced:
            self._twin(path).mkdir(parents=True)
        return path

    def _twin(self, path: Path) -> Path:
        return self.dir / "twin" / path.relative_to(self.dir)

    def repro(self, name: str, args: list[str], phase: str | None = None) -> Finished:
        """Run ``repro ARGS`` as a child process and time it.

        In a traced run a command of a ``phase`` runs twice back to back: an
        untraced twin on mirrored paths (its wall-clock is the one returned
        and the base of the tracing overhead), then the traced command (its
        output is the one returned and checked).  A pair shares the host's
        speed of the moment.
        """
        if not (self.traced and phase):
            return self.children.run([PY, "-m", "repro", *args], name)
        twin = self.children.run(
            [PY, "-m", "repro", *(arg.replace(str(self.dir), str(self._twin(self.dir))) for arg in args)],
            name,
        )
        self.command_ok(f"{name} (untraced twin)", twin)
        spans_dir = self.fresh_dir(f"spans-{name}")
        span_id = self.recorder.new_id()
        start = time.time()
        done = self.children.run(
            [PY, "-m", "perfbench.traced_cli", str(spans_dir), span_id, *args], name
        )
        self.recorder.add("cli.process", start, time.time(), None, span_id, command=name)
        self.traced_commands.append((phase, span_id, spans_dir))
        self.untraced_walls.append(twin.wall_s)
        self.traced_walls.append(done.wall_s)
        return Finished(done.returncode, twin.wall_s, done.output)

    def command_ok(self, name: str, done: Finished) -> bool:
        tail = done.output.strip().splitlines()[-1:] if done.returncode else []
        return self.ledger.record(
            name, done.returncode == 0, f"exit {done.returncode} {' '.join(tail)}"
        )

    # ------------------------------------------------------------------
    def run(self) -> None:
        self.repro("warm-up", ["list"])  # untimed: bytecode caches, as users have
        self.figures()
        self.sweep()
        self.serve()
        if self.traced:
            self.layer_metrics()

    # ------------------------------------------------------------------
    # figures
    # ------------------------------------------------------------------
    def figures(self) -> None:
        """Cold fig8, then warm fig8/fig9 on the filled density cache."""
        figures = self.plan["figures"]
        work = self.fresh_dir("figures")
        common = [
            "--workloads", _pairs(figures["workloads"]),
            "--pruning-rate", str(figures["pruning_rate"]),
            "--cache-dir", str(work / "cache"),
        ]
        cold_out = work / "fig8-cold.json"
        cold = self.repro("fig8-cold", ["run", "fig8", *common, "--out", str(cold_out)], "figures-cold")
        cold_payload = _load_json(cold_out)["payload"] if self.command_ok("fig8 cold", cold) else None
        warm_walls = []
        for index, experiment in enumerate(figures["warm"]):
            out = work / f"{experiment}-warm-{index}.json"
            done = self.repro(f"{experiment}-warm", ["run", experiment, *common, "--out", str(out)],
                              "figures-warm")
            warm_walls.append(done.wall_s)
            if done.returncode != 0:
                self.command_ok(f"{experiment} warm", done)
                continue
            payload = _load_json(out)["payload"]
            self.ledger.record(
                f"{experiment} warm", self._check_figure(experiment, payload, cold_payload),
                "payload differs from the cold fig8",
            )
            if experiment == "fig9" and cold_payload is not None:
                self.notes.setdefault("mean_efficiency", payload["mean_efficiency"])
        self.metrics["fig_cold_s"] = cold.wall_s
        self.metrics["fig_warm_s"] = statistics.median(warm_walls)
        if cold_payload is not None:
            self.notes["mean_speedup"] = cold_payload["mean_speedup"]
            self.notes["max_speedup"] = cold_payload["max_speedup"]

    @staticmethod
    def _check_figure(experiment: str, payload: dict, cold: dict | None) -> bool:
        """A warm fig8 equals the cold one; fig9's gains equal fig8's."""
        if cold is None:
            return False
        if experiment == "fig8":
            return payload == cold
        return {
            name: (w["speedup"], w["energy_efficiency"]) for name, w in payload["workloads"].items()
        } == {
            name: (w["speedup"], w["energy_efficiency"]) for name, w in cold["workloads"].items()
        }

    # ------------------------------------------------------------------
    # sweep
    # ------------------------------------------------------------------
    def sweep(self) -> None:
        """Cold, cached and analytic sweeps."""
        sweep = self.plan["sweep"]
        work = self.fresh_dir("sweep")
        grid, agrid = sweep["grid"], sweep["analytic_grid"]
        points = len(sweep["workloads"]) * len(grid["pes"]) * len(grid["buffers"]) * len(grid["pruning_rates"])
        apoints = len(sweep["workloads"]) * len(agrid["pes"]) * len(agrid["buffers"]) * len(agrid["pruning_rates"])

        def args(fidelity_grid: dict, cache: str, *extra: str) -> list[str]:
            return [
                "sweep", "--workloads", _pairs(sweep["workloads"]),
                "--pes", _csv(fidelity_grid["pes"]),
                "--buffers", _csv(fidelity_grid["buffers"]),
                "--pruning-rates", _csv(fidelity_grid["pruning_rates"]),
                "--cache-dir", str(work / cache), "--top", "3", *extra,
            ]

        repeats = 1 if self.traced else SWEEP_REPEATS  # a traced run needs no medians
        cold = [
            self.repro("sweep-cold", args(grid, f"cache-{i}", "--out", str(work / f"cold-{i}.json")),
                       "sweep-cold")
            for i in range(repeats)
        ]
        warm = [
            self.repro("sweep-warm", args(grid, "cache-0", "--out", str(work / f"warm-{i}.json")),
                       "sweep-warm")
            for i in range(repeats)
        ]
        analytic = [
            self.repro("sweep-analytic", args(agrid, "cache-0", "--fidelity", "analytic"),
                       "sweep-analytic")
            for _ in range(repeats)
        ]
        reference = None
        for i, done in enumerate(cold):
            if self._sweep_ok("sweep cold", done, f"{points} points (0 duplicate), 0 cached, {points} simulated"):
                records = _load_json(work / f"cold-{i}.json")["records"]
                if reference is None:
                    reference = records
                    self.ledger.record("sweep analytic agreement", *self._check_analytic(records))
                else:
                    self.ledger.record("sweep cold records", records == reference,
                                       "two cold sweeps returned different records")
        for i, done in enumerate(warm):
            if self._sweep_ok("sweep warm", done, f"{points} points (0 duplicate), {points} cached, 0 simulated"):
                self.ledger.record(
                    "sweep cached records", _load_json(work / f"warm-{i}.json")["records"] == reference,
                    "the cached rerun returned other records than the cold sweep",
                )
        for done in analytic:
            self._sweep_ok("sweep analytic", done, f"{apoints} points (0 duplicate), {apoints} analytic")
        self.metrics["sweep_points_per_s"] = points / statistics.median(d.wall_s for d in cold)
        self.metrics["sweep_cached_points_per_s"] = points / statistics.median(d.wall_s for d in warm)
        self.metrics["analytic_points_per_s"] = apoints / statistics.median(d.wall_s for d in analytic)

    def _sweep_ok(self, name: str, done: Finished, stats_line: str) -> bool:
        """The command succeeded and its engine stats show the expected cache use."""
        return self.command_ok(name, done) and self.ledger.record(
            f"{name} stats", stats_line in done.output, f"expected {stats_line!r}"
        )

    @staticmethod
    def _check_analytic(records: list[dict]) -> tuple[bool, str]:
        """Every simulated record agrees with the analytic tier within its bound."""
        from repro.analytic.model import evaluate_points_analytic
        from repro.analytic.validate import DEFAULT_ERROR_BOUNDS
        from repro.explore.engine import DesignPoint

        points = [
            DesignPoint(r["model"], r["dataset"], r["pruning_rate"],
                        tuple(sorted((k, v) for k, v in r["overrides"].items())))
            for r in records
        ]
        worst = (0.0, "")
        for record, estimate in zip(records, evaluate_points_analytic(points)):
            for metric, bound in DEFAULT_ERROR_BOUNDS.items():
                reference = record[metric]
                error = abs(getattr(estimate, metric) - reference) / max(abs(reference), 1e-12)
                if error / bound > worst[0]:
                    worst = (error / bound, f"{metric} rel error {error:.2e} > {bound:.0e}")
        return worst[0] <= 1.0, worst[1]

    # ------------------------------------------------------------------
    # serve
    # ------------------------------------------------------------------
    def _serve_argv(self, db: Path, port: int, cache: Path) -> list[str]:
        argv = [PY, "-m", "repro", "serve", "--port", str(port), "--db", str(db),
                "--cache-dir", str(cache)]
        return argv + (["--fleet", str(FLEET_SIZE)] if self.fleet else [])

    def _start_service(self, cache: Path) -> tuple[Any, str, float]:
        """Spawn ``repro serve``; returns it, its URL and the seconds until ready."""
        from repro.serve.client import ServeClient, ServeError

        port = free_port()
        db = self.fresh_dir("serve") / "serve.db"
        start = time.perf_counter()
        proc = self.children.start(self._serve_argv(db, port, cache), "serve")
        url = f"http://127.0.0.1:{port}"
        client = ServeClient(url, timeout=5.0)
        while time.perf_counter() - start < READY_TIMEOUT_S:
            if proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {proc.returncode} during start-up")
            try:
                health = client.health()
            except ServeError:
                time.sleep(0.01)
                continue
            workers = [w for w in health["workers"] if w.get("pid") != proc.pid]
            if not self.fleet or len(workers) >= FLEET_SIZE:
                return proc, url, time.perf_counter() - start
            time.sleep(0.01)
        raise RuntimeError("repro serve did not become ready")

    def _requests(self) -> list[Any]:
        from repro.api import ExperimentRequest
        from repro.eval.common import ExperimentScale

        def build(spec: dict) -> ExperimentRequest:
            scale = spec.get("scale")
            return ExperimentRequest(
                experiment=spec["experiment"],
                workloads=tuple(tuple(pair) for pair in spec.get("workloads", ())),
                pruning_rate=spec.get("pruning_rate", 0.9),
                scale=ExperimentScale.preset(scale) if scale else None,
                params=tuple(spec.get("params", {}).items()),
            )

        schedule = self.plan["serve"]["schedule"]
        return [build(request_of(self.plan, index)) for index in range(len(schedule))]

    def serve(self) -> None:
        cache = self.fresh_dir("serve-cache")
        for rate in self.plan["serve"]["fig_rates"]:
            done = self.repro("prefill", ["run", "fig8", "--smoke", "--pruning-rate", str(rate),
                                          "--cache-dir", str(cache)])
            self.command_ok("prefill densities", done)
        requests = self._requests()
        if self.traced:
            self.layers.update(self._hash_timing(requests))
        setups = []
        for _ in range(1 if self.traced else SETUP_REPEATS - 1):
            proc, _, seconds = self._start_service(cache)
            setups.append(seconds)
            self.children.stop(proc)
        proc, url, seconds = self._start_service(cache)
        setups.append(seconds)
        try:
            samples, loop_s = self._load(url, requests)
            rows, stats, traces = self._collect(url, samples)
        finally:
            self.ledger.record("serve drain", self.children.stop(proc) == 0, "repro serve exited non-zero")
        self._check_jobs(samples, rows, requests, cache)
        self.samples = samples
        done = [s for s in samples if s["state"] == "done"]
        latencies = [s["latency_s"] for s in samples]
        if not self.traced:
            self.metrics["setup_s"] = statistics.median(setups)
            self.metrics["job_latency_p50_s"] = statistics.median(latencies)
            self.metrics["job_latency_p90_s"] = percentile(latencies, 90)
            self.metrics["jobs_per_s"] = len(done) / loop_s
        self.notes["jobs"] = len(samples)
        if self.traced:
            self._serve_layers(samples, rows, stats, traces)

    def _hash_timing(self, requests: list) -> dict[str, float]:
        micros = []
        for request in requests:
            start = time.perf_counter()
            request.content_hash  # computed on every access, as the store does on submit
            micros.append((time.perf_counter() - start) * 1e6)
        return self._timing("api.request_hash_us", micros, tail=True)

    def span(self, name: str, **attrs: Any):
        """A client-side span in traced runs; nothing in timed runs."""
        return self.recorder.span(name, **attrs) if self.traced else nullcontext(attrs)

    def _load(self, url: str, requests: list) -> tuple[list[dict], float]:
        """The closed loop; returns one sample per request and the loop's wall-clock."""
        from repro.serve.client import ServeClient

        schedule = self.plan["serve"]["schedule"]
        lock = threading.Lock()
        state = {"next": 0, "done": 0}
        samples: list[dict] = []
        start = time.perf_counter()
        stop_at = start + self.seconds

        def take() -> int | None:
            with lock:
                now = time.perf_counter()
                finished = now >= stop_at and state["done"] >= MIN_JOBS
                if finished or now >= stop_at + LOAD_OVERRUN_S or state["next"] >= len(schedule):
                    return None
                state["next"] += 1
                return state["next"] - 1

        def client_loop() -> None:
            client = ServeClient(url)
            polls = [0]
            fetch = client.job

            def counted_job(job_id: str) -> dict:
                polls[0] += 1
                with self.span("serve.poll"):
                    return fetch(job_id)

            client.job = counted_job
            while (index := take()) is not None:
                time.sleep(schedule[index]["think_s"])
                polls[0] = 0
                sample = {"index": index, "kind": schedule[index]["kind"], "state": "error"}
                with self.span("serve.job", index=index) as attrs:
                    t0, wall0 = time.perf_counter(), time.time()
                    try:
                        with self.span("serve.submit"):
                            reply = client.submit(requests[index])
                        submitted = time.perf_counter()
                        job = client.wait(reply["job"]["id"], timeout=JOB_TIMEOUT_S)
                    except Exception as exc:  # noqa: BLE001 - the loop must keep running
                        sample["error"] = f"{type(exc).__name__}: {exc}"
                        job = None
                    t1, wall1 = time.perf_counter(), time.time()
                    if job is not None:
                        attrs["job_id"] = job["id"]
                        sample.update(
                            job_id=job["id"], deduped=reply["deduped"], state=job["state"],
                            submit_s=submitted - t0, polls=polls[0],
                        )
                sample.update(latency_s=t1 - t0, sent_at=wall0, seen_done_at=wall1)
                with lock:
                    samples.append(sample)
                    state["done"] += sample["state"] == "done"

        threads = [threading.Thread(target=client_loop, daemon=True) for _ in range(CLIENT_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return samples, time.perf_counter() - start

    def _collect(self, url: str, samples: list[dict]) -> tuple[dict, dict, dict]:
        """Job rows, service counters and (traced) merged traces, after the loop."""
        from repro.serve.client import ServeClient

        client = ServeClient(url)
        rows = {s["job_id"]: client.job(s["job_id"]) for s in samples if s.get("job_id")}
        stats = client.stats()
        traces = {}
        if self.traced:
            for sample in samples:
                if sample.get("job_id") and not sample["deduped"]:
                    traces[sample["job_id"]] = client.trace(sample["job_id"])
        return rows, stats, traces

    def _check_jobs(self, samples: list[dict], rows: dict, requests: list, cache: Path) -> None:
        """Every job done, executed once, with the numbers of an in-process run."""
        from repro.api import RunOptions, run_experiment

        for sample in samples:
            self.ledger.record(
                f"job {sample['index']}", sample["state"] == "done",
                sample.get("error") or f"ended {sample['state']}",
            )
        check_cache = self.fresh_dir("check-cache")
        shutil.copy(cache / "densities.jsonl", check_cache / "densities.jsonl")
        options = RunOptions(max_workers=2, cache_dir=check_cache)
        checked: set[str] = set()
        for sample in samples:
            job_id = sample.get("job_id")
            if job_id is None or job_id in checked or rows[job_id]["state"] != "done":
                continue
            checked.add(job_id)
            row = rows[job_id]
            self.ledger.record(
                f"job {job_id[:12]} executions", row["executions"] == 1,
                f"executed {row['executions']} times",
            )
            request = requests[sample["index"]]
            expected = json.loads(json.dumps(run_experiment(request, options).payload))
            served = row["result"]["payload"]
            key = "records" if request.experiment == "sweep" else "workloads"
            self.ledger.record(
                f"job {job_id[:12]} numbers", served[key] == expected[key],
                f"{request.experiment} {key} differ from an in-process run",
            )

    # ------------------------------------------------------------------
    # per-layer metrics (traced runs)
    # ------------------------------------------------------------------
    def _timing(self, name: str, values: list[float], tail: bool = False) -> dict[str, float]:
        """Median and sample count; with ``tail``, the qualifying tail percentile."""
        summary = summarize(values)
        out = {name: summary["p50"] or 0.0, f"{name}.n": summary["n"]}
        if tail:
            out[f"{name}.tail"] = summary["tail"] if summary["tail"] is not None else out[name]
            self.tail_levels[f"{name}.tail"] = summary["tail_level"] or 50.0
        return out

    def _server_spans(self, trace: dict, parent: str) -> list[dict]:
        """The merged trace's spans, nested by containment, under the client's job span."""
        events = sorted(
            (e for e in trace.get("traceEvents", ()) if e.get("ph") == "X"),
            key=lambda e: (e["pid"], e.get("tid", 0), e["ts"], -e["dur"]),
        )
        spans, stack = [], []
        for event in events:
            head = event["name"].split(".", 1)[0]
            start, end = event["ts"] / 1e6, (event["ts"] + event["dur"]) / 1e6
            track = (event["pid"], event.get("tid", 0))
            while stack and (stack[-1][0] != track or stack[-1][2] < end):
                stack.pop()
            span_id = self.recorder.new_id()
            spans.append({
                "id": span_id, "parent": stack[-1][1] if stack else parent,
                "name": f"{SERVER_SPAN_LAYERS.get(head, head)}.{event['name']}",
                "start": start, "end": end, "pid": event["pid"], "attrs": {},
            })
            stack.append((track, span_id, end))
        return spans

    def _serve_layers(self, samples: list[dict], rows: dict, stats: dict, traces: dict) -> None:
        executed = [s for s in samples if s.get("job_id") and not s["deduped"] and s["state"] == "done"]
        queue = [rows[s["job_id"]]["started_at"] - rows[s["job_id"]]["created_at"] for s in executed]
        notify = [s["seen_done_at"] - rows[s["job_id"]]["finished_at"] for s in executed]
        job_spans = {span["attrs"].get("job_id"): span["id"] for span in self.recorder.spans
                     if span["name"] == "serve.job" and span["attrs"].get("job_id")}
        for sample in executed:
            trace = traces.get(sample["job_id"])
            if trace:
                self.recorder.spans.extend(
                    self._server_spans(trace, job_spans[sample["job_id"]])
                )
        layers = self.layers
        layers.update(self._timing("serve.submit_s", [s["submit_s"] for s in samples if "submit_s" in s], True))
        layers.update(self._timing("serve.queue_wait_s", queue, True))
        layers.update(self._timing("serve.execute_s", [
            rows[s["job_id"]]["finished_at"] - rows[s["job_id"]]["started_at"] for s in executed], True))
        layers.update(self._timing("serve.stage_s", [
            sum(rows[s["job_id"]]["timings"].values()) for s in executed], True))
        layers.update(self._timing("serve.notify_s", notify, True))
        answered = [s for s in samples if "polls" in s]
        layers["serve.polls_per_job"] = statistics.mean(s["polls"] for s in answered)
        layers["serve.dedup_ratio"] = sum(s["deduped"] for s in answered) / len(answered)
        distinct = {s["job_id"] for s in answered}
        layers["serve.executions_per_request"] = sum(rows[j]["executions"] for j in distinct) / len(distinct)
        layers["serve.store_busy_retries"] = stats["jobs"]["busy_retries"]
        layers["share.job_p50.wait_notify"] = statistics.median(
            (q + n) / s["latency_s"] for q, n, s in zip(queue, notify, executed)
        )

    def layer_metrics(self) -> None:
        """Per-layer counts, timings, self times and the dominant layers' shares."""
        spans = list(self.recorder.spans)
        by_command: dict[str, list[dict]] = {}
        process: dict[str, dict] = {s["id"]: s for s in spans if s["name"] == "cli.process"}
        for _, span_id, spans_dir in self.traced_commands:
            child_spans = read_spans(spans_dir)
            by_command[span_id] = child_spans
            spans.extend(child_spans)

        def named(name: str) -> list[dict]:
            return [s for s in spans if s["name"] == name]

        def dur(span: dict) -> float:
            return span["end"] - span["start"]

        def phase_spans(phase: str) -> list[tuple[dict, list[dict]]]:
            return [(process[sid], by_command[sid]) for p, sid, _ in self.traced_commands if p == phase]

        layers = self.layers
        layers.update(self._timing("cli.import_s", [dur(s) for s in named("cli.import")]))
        layers.update(self._timing("api.registry_s", [dur(s) for s in named("api.registry")]))
        train = named("eval.train")
        layers.update(self._timing("eval.train_s", [dur(s) for s in train]))
        train_time = sum(dur(s) for s in train)
        layers["eval.train_samples_per_s"] = (
            sum(s["attrs"]["samples"] for s in train) / train_time if train_time else 0.0
        )
        gets = named("explore.cache_get")
        layers["eval.density_cache_hits"] = sum(
            1 for s in gets if s["attrs"]["file"] == "densities.jsonl" and s["attrs"]["hit"])
        layers["eval.density_cache_misses"] = sum(
            1 for s in gets if s["attrs"]["file"] == "densities.jsonl" and not s["attrs"]["hit"])
        compiles = named("dataflow.compile")
        layers.update(self._timing("dataflow.compile_s", [dur(s) for s in compiles], True))
        layers["dataflow.programs"] = len(compiles)
        layers["dataflow.instructions"] = sum(s["attrs"]["instructions"] for s in compiles)
        runs = named("arch.run_program")
        layers.update(self._timing("arch.run_program_s", [dur(s) for s in runs], True))
        steps = sum(s["attrs"]["steps"] for s in runs)
        layers["arch.steps"] = steps
        layers["arch.us_per_step"] = sum(dur(s) for s in runs) / steps * 1e6 if steps else 0.0
        compares = named("sim.compare_workload")
        layers.update(self._timing("sim.compare_workload_s", [dur(s) for s in compares], True))
        layers["sim.compare_workload_calls"] = len(compares)
        runs = named("api.run_experiment")
        layers.update(self._timing("api.pipeline_overhead_s", [
            dur(s) - sum(s["attrs"]["stage_s"].values()) for s in runs]))
        tasks = named("api.runner.task")
        layers["api.runner.tasks"] = len(tasks)
        layers.update(self._timing("api.runner.queue_wait_s", [s["attrs"]["queue_wait_s"] for s in tasks], True))
        layers.update(self._timing("api.runner.exec_s", [dur(s) for s in tasks], True))
        for phase, key in (("sweep-cold", "explore.engine_cold_s"), ("sweep-warm", "explore.engine_warm_s")):
            layers[key] = sum(dur(s) for _, cmd in phase_spans(phase) for s in cmd if s["name"] == "explore.engine")
        engines = named("explore.engine")
        cached = sum(s["attrs"]["cached"] for s in engines)
        simulated = sum(s["attrs"]["simulated"] for s in engines)
        layers["explore.points_cached"] = cached
        layers["explore.points_simulated"] = simulated
        layers["explore.cache_hit_ratio"] = cached / (cached + simulated) if cached + simulated else 0.0
        sweep_file = [s for s in gets if s["attrs"]["file"] == "sweeps.jsonl"]
        layers.update(self._timing("explore.cache_get_us", [dur(s) * 1e6 for s in sweep_file], True))
        puts = [s for s in named("explore.cache_put") if s["attrs"]["file"] == "sweeps.jsonl"]
        layers.update(self._timing("explore.cache_put_us", [dur(s) * 1e6 for s in puts], True))
        layers["explore.report_s"] = sum(
            s["attrs"]["stage_s"].get("report", 0.0)
            for _, cmd in phase_spans("sweep-analytic") for s in cmd if s["name"] == "api.run_experiment"
        )
        analytic = named("analytic.evaluate")
        analytic_time = sum(dur(s) for s in analytic)
        analytic_points = sum(s["attrs"]["points"] for s in analytic)
        layers["analytic.evaluate_s"] = analytic_time
        layers["analytic.points"] = analytic_points
        layers["analytic.us_per_point"] = analytic_time / analytic_points * 1e6 if analytic_points else 0.0
        # The ungated CLI timings (untraced twins), by the layer that dominates each.
        for layer, name in (("eval", "fig_cold_s"), ("cli", "fig_warm_s"), ("sim", "sweep_points_per_s"),
                            ("explore", "sweep_cached_points_per_s"), ("analytic", "analytic_points_per_s")):
            layers[f"{layer}.{name}"] = self.metrics[name]
        untraced, traced = sum(self.untraced_walls), sum(self.traced_walls)
        layers["obs.trace_overhead_frac"] = (traced - untraced) / untraced

        own = layer_self_times(spans)
        for layer in LAYERS:
            layers[f"self_s.{layer}"] = own.get(layer, 0.0)
        layers["self_s.total"] = sum(own.values())

        # The layer each end-to-end metric should be dominated by.
        cold = phase_spans("figures-cold")
        layers["share.fig_cold.train"] = statistics.mean(
            sum(dur(s) for s in cmd if s["name"] == "eval.train") / dur(proc) for proc, cmd in cold
        )
        layers["share.fig_warm.startup"] = statistics.median(
            1.0 - sum(dur(s) for s in cmd if s["name"] == "api.run_experiment") / dur(proc)
            for proc, cmd in phase_spans("figures-warm")
        )
        layers["share.sweep_cold.simulate"] = statistics.mean(
            covered([(s["start"], s["end"]) for s in cmd if s["name"] == "sim.compare_workload"],
                    proc["start"], proc["end"]) / dur(proc)
            for proc, cmd in phase_spans("sweep-cold")
        )
        self.spans = spans

    # ------------------------------------------------------------------
    def model_error(self) -> str | None:
        """The simulated gains beside the paper's, labelled as what they are."""
        speedup = self.notes.get("mean_speedup")
        efficiency = self.notes.get("mean_efficiency")
        if speedup is None or efficiency is None:
            return None
        return (
            f"simulated mean speedup {speedup:.2f}x vs the paper's {PAPER_MEAN_SPEEDUP}x "
            f"({(speedup / PAPER_MEAN_SPEEDUP - 1):+.0%}); mean energy efficiency "
            f"{efficiency:.2f}x vs {PAPER_MEAN_EFFICIENCY}x ({(efficiency / PAPER_MEAN_EFFICIENCY - 1):+.0%}); "
            f"max speedup {self.notes['max_speedup']:.2f}x vs ~{PAPER_MAX_SPEEDUP}x. "
            "Error against the paper's own simulator: the model has no hardware validation."
        )


def chrome_trace(spans: list[dict]) -> dict:
    """Spans as a Chrome/Perfetto trace document."""
    return {
        "traceEvents": [
            {
                "name": s["name"], "ph": "X", "pid": s["pid"], "tid": 0,
                "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                "args": dict(s["attrs"], id=s["id"], parent=s["parent"]),
            }
            for s in spans
        ]
    }

