"""The repository's benchmark: what users of the reproduction wait on.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

Runs one seeded user session against the program in ``src/`` (see
``perfbench/README.md``), prints every metric by name and unit on standard
error, and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same session with spans
around every layer and reports the per-layer metrics instead.

The exit code is 0 when every operation and output check passed, 1 when one
failed, and 2 when the program's source is not there to run.  The plan (the
generated flags and requests) and the results are written to
``.perfbench/results/``; ``--replay FILE`` runs a recorded plan again.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: name -> (unit, better); every run reports all of them with --trace 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "job_latency_p50_s": ("s", "lower"),
    "job_latency_p90_s": ("s", "lower"),
    "jobs_per_s": ("jobs/s", "higher"),
}

#: Measured and printed in every run, but not gated: their wall-clock swings
#: with the host's speed far more than any allowed bound (see README.md).
MEASURED = {
    "fig_cold_s": ("s", "lower"),
    "fig_warm_s": ("s", "lower"),
    "sweep_points_per_s": ("points/s", "higher"),
    "sweep_cached_points_per_s": ("points/s", "higher"),
    "analytic_points_per_s": ("points/s", "higher"),
}

_LAYER_UNITS = {
    "eval.fig_cold_s": ("s", "lower"),
    "cli.fig_warm_s": ("s", "lower"),
    "sim.sweep_points_per_s": ("points/s", "higher"),
    "explore.sweep_cached_points_per_s": ("points/s", "higher"),
    "analytic.analytic_points_per_s": ("points/s", "higher"),
    "eval.train_samples_per_s": ("samples/s", "higher"),
    "eval.density_cache_hits": ("count", "higher"),
    "explore.points_cached": ("count", "higher"),
    "explore.cache_hit_ratio": ("fraction", "higher"),
    "serve.dedup_ratio": ("fraction", "higher"),
    "arch.us_per_step": ("us", "lower"),
    "analytic.us_per_point": ("us", "lower"),
    "obs.trace_overhead_frac": ("fraction", "lower"),
}


def layer_unit(name: str) -> tuple[str, str]:
    """Unit and direction of a per-layer metric, from its name."""
    if name in _LAYER_UNITS:
        return _LAYER_UNITS[name]
    if name.endswith(".n"):
        return "count", "higher"  # sample counts: more samples, firmer percentiles
    base = name.removesuffix(".tail")
    if name.startswith("share."):
        return "fraction", "lower"
    if name.startswith("self_s.") or base.endswith("_s"):
        return "s", "lower"
    if base.endswith("_us"):
        return "us", "lower"
    return "count", "lower"


def _child_env(run_dir: Path) -> dict[str, str]:
    """The program's environment: this checkout's source, no stray fault plans."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(run_dir / "tmp")
    return env


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _report(session, metrics: dict, units, elapsed: float, results: Path) -> None:
    plan = session.plan
    mode = "tracing on" if session.traced else "tracing off"
    lines = [
        f"perfbench {plan['workload']} seed {plan['seed']} ({mode}): {elapsed:.1f} s, "
        f"{session.notes.get('jobs', 0)} jobs, {session.ledger.attempted} operations, "
        f"{len(session.ledger.failures)} failed"
    ]
    for name, value in metrics.items():
        if name.endswith(".n"):
            continue
        count = metrics.get(f"{name.removesuffix('.tail')}.n")
        extra = f"  n={count:g}" if count is not None else ""
        if name in session.tail_levels:
            extra += f", p{session.tail_levels[name]:g}"
        lines.append(f"  {name:<34} {value:>14.6g} {units(name)[0]}{extra}")
    if not session.traced:
        for name, (unit, _) in MEASURED.items():
            if name in session.metrics:
                lines.append(f"  {name:<34} {session.metrics[name]:>14.6g} {unit}  (not gated)")
    model = session.model_error()
    if model:
        lines.append(f"  model: {model}")
    for failure in session.ledger.failures:
        lines.append(f"  FAILED {failure}")
    lines.append(f"  plan and results: {results.relative_to(ROOT)}")
    print("\n".join(lines), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.plan import WORKLOADS, make_plan

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the service load loop (at least 100 jobs are run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=Path, default=None, metavar="RESULTS",
                        help="run the plan recorded in a results file instead of a seeded one")
    args = parser.parse_args(argv)
    if args.workload is None and args.replay is None:
        parser.error("--workload is required (or --replay)")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run the benchmark "
              "from the root of a checkout of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.procs import Children
    from perfbench.session import LAYERS, Session, chrome_trace

    plan = (
        json.loads(args.replay.read_text(encoding="utf-8"))["plan"]
        if args.replay else make_plan(args.workload, args.seed)
    )
    traced = bool(args.trace)
    run_dir = ROOT / ".perfbench" / f"run-{plan['workload']}-{plan['seed']}-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True)
    (run_dir / "logs").mkdir()
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{plan['workload']}-seed{plan['seed']}-trace{args.trace}"

    signal.signal(signal.SIGTERM, _terminate)
    children = Children(_child_env(run_dir), ROOT, run_dir / "logs")
    session = Session(plan, args.seconds, traced, run_dir, children)
    started = time.perf_counter()
    try:
        session.run()
    except Exception:  # noqa: BLE001 - reported as a failed run, with the traceback
        session.ledger.record("run", False, traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc()
    finally:
        children.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    elapsed = time.perf_counter() - started

    if traced:
        order = (*LAYERS, "self_s", "share")  # by layer, then self times and shares
        metrics = dict(sorted(session.layers.items(),
                              key=lambda item: order.index(item[0].split(".")[0])))
        units = layer_unit
    else:
        session.metrics["peak_rss_mb"] = children.max_rss_mb
        metrics = {name: session.metrics[name] for name in END_TO_END if name in session.metrics}
        units = END_TO_END.__getitem__
    ledger = session.ledger
    correct = not ledger.failures and (traced or len(metrics) == len(END_TO_END))
    results = results_dir / f"{stem}.json"
    results.write_text(json.dumps({
        "plan": plan,
        "metrics": metrics,
        "not_gated": {name: session.metrics.get(name) for name in MEASURED},
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "model_error": session.model_error(),
        "jobs": session.samples,
        "elapsed_s": elapsed,
    }, indent=1), encoding="utf-8")
    if traced and session.spans:
        (results_dir / f"{stem}-spans.json").write_text(
            json.dumps(chrome_trace(session.spans)), encoding="utf-8"
        )
    _report(session, metrics, units, elapsed, results)

    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": units(name)[0]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
