"""``python -m repro`` — the reproduction and exploration command line.

Every subcommand dispatches through the :mod:`repro.api` experiment registry:
the CLI builds a typed :class:`~repro.api.ExperimentRequest` plus
:class:`~repro.api.RunOptions` and executes the registered pipeline — the
same path library callers and services use.  Experiments run in this
process; ``repro serve --fleet N`` runs jobs in parallel, one per worker
process.

Subcommands
-----------
``list``
    Show every registered experiment and workload.
``run``
    Run any registered experiment by name (``python -m repro run fig8
    --json``), with generic workload/scale/parameter flags.  ``--json``
    prints (or ``--out`` writes) the full serialized
    :class:`~repro.api.ExperimentResult`.
``sweep``
    Run a design-space sweep (PE count x buffer size x pruning rate, times a
    workload list) through the exploration engine: column evaluation,
    persistent caching, optional CSV/JSON export.  ``--model vgg16`` /
    ``--model mobilenet`` sweep a single workload without spelling out
    ``--workloads``.
``pareto``
    Extract per-workload Pareto frontiers from a sweep (re-running it through
    the cache, or loading a previous export) and optionally export them.
``fig8`` / ``fig9``
    Regenerate the paper's latency (Fig. 8) and energy (Fig. 9) comparisons
    with the measured-density pipeline.  Density measurements are memoized on
    disk (``--no-cache`` disables).
``bench``
    Time the pipeline stage by stage (train, compile, simulate, report) and
    write ``BENCH_repro.json`` — the repository's performance trajectory.
    ``--check`` compares the run against a committed baseline and exits 1 on
    a >tolerance regression in any stage p95 (stages under a 0.05 s noise
    floor are not gated) and 2 on a scale mismatch — the CI perf gate.
``trace``
    Run any registered experiment with the same flags as ``run`` and dump a
    Chrome-trace JSON (``chrome://tracing`` / Perfetto) of the pipeline's
    stage spans — ``repro trace fig8 --smoke --out trace.json``.  With
    ``--job <id>`` it instead exports a service job's *merged distributed
    trace*: the spans of every fleet process that touched the job plus the
    synthetic queue-wait span, from the running service (``--url``) or
    straight off the job store's span spools (``--db``).
``serve`` / ``submit`` / ``status`` / ``stats`` / ``top`` / ``cancel``
    The persistent experiment job service (:mod:`repro.serve`): ``serve``
    runs the SQLite-backed scheduler + HTTP API in the foreground until
    SIGINT/SIGTERM (then drains gracefully); the other verbs are thin
    clients — submit a request (deduplicated by content hash, ``--wait``
    blocks until done), inspect job states, watch live telemetry
    (``repro stats --watch``, ``repro top``), cancel queued jobs.

Every run prints the same tables the library returns, so a CLI invocation is
a reproducible, copy-pasteable experiment description.

Start-up imports only what parsing needs: :mod:`repro.api` (import-light by
design) and the service verbs' constants.  Each handler imports the rest, so
``--help``, ``serve``, ``worker`` and the client verbs start without numpy,
and a verb that runs an experiment loads the pipeline when it first needs it.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.api import (
    DEFAULT_FIDELITY,
    FIDELITY_CHOICES,
    ExperimentRequest,
    RunOptions,
    list_experiments,
    list_workloads,
    run_experiment,
)
from repro.api.request import DEFAULT_CACHE_DIR

DEFAULT_WORKLOADS = (
    "AlexNet/CIFAR-10,ResNet-18/CIFAR-10,VGG-16/CIFAR-10,MobileNetV1/CIFAR-10"
)
DEFAULT_PES = "84,168,336,672"
DEFAULT_BUFFERS = "192,386,772"
DEFAULT_RATES = "0.5,0.7,0.9,0.95"

SMOKE_WORKLOADS = "AlexNet/CIFAR-10,ResNet-18/CIFAR-10"
SMOKE_PES = "84,168"
SMOKE_BUFFERS = "386"
SMOKE_RATES = "0.9"


def _parse_workloads(text: str) -> list[tuple[str, str]]:
    """``<model>/<dataset>`` pairs; :class:`ExperimentRequest` normalises the names."""
    workloads: list[tuple[str, str]] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        model, sep, dataset = item.partition("/")
        if not sep:
            raise SystemExit(
                f"workload {item!r} must be <model>/<dataset>, e.g. AlexNet/CIFAR-10"
            )
        workloads.append((model, dataset))
    if not workloads:
        raise SystemExit("at least one workload is required")
    return workloads


def _parse_list(text: str, convert) -> tuple:
    try:
        return tuple(convert(item.strip()) for item in text.split(",") if item.strip())
    except ValueError as exc:
        raise SystemExit(f"cannot parse list {text!r}: {exc}") from exc


def _add_space_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workloads",
        default=DEFAULT_WORKLOADS,
        help="comma-separated <model>/<dataset> pairs (default: %(default)s)",
    )
    parser.add_argument(
        "--model",
        default=None,
        help="sweep a single model (e.g. vgg16, mobilenet); overrides --workloads",
    )
    parser.add_argument(
        "--dataset",
        default=None,
        help="dataset for --model (default: cifar10)",
    )
    parser.add_argument(
        "--pes", default=DEFAULT_PES, help="PE counts to sweep (default: %(default)s)"
    )
    parser.add_argument(
        "--buffers",
        default=DEFAULT_BUFFERS,
        help="buffer sizes in KiB to sweep (default: %(default)s)",
    )
    parser.add_argument(
        "--pruning-rates",
        default=DEFAULT_RATES,
        help="target pruning rates to sweep (default: %(default)s)",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="evaluate a seeded random subset of N grid points instead of all",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --sample (default: %(default)s)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fixed grid for CI smoke runs (overrides the space options)",
    )
    parser.add_argument(
        "--fidelity",
        choices=FIDELITY_CHOICES,
        default=DEFAULT_FIDELITY.value,
        help="cost-model tier; every tier evaluates the simulator's formulas "
        "on numpy columns with the same results: vectorized (default) caches "
        "records under content-hash keys, analytic skips the cache (million-"
        "point grids), scalar runs the default engine",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="persistent result-cache directory (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the persistent cache"
    )


def _selected_workloads(args: argparse.Namespace, default: str) -> list[tuple[str, str]]:
    """Workloads from --model/--dataset (single) or --workloads (list)."""
    if args.model is not None:
        dataset = args.dataset if args.dataset is not None else "cifar10"
        return [(args.model, dataset)]
    if args.dataset is not None:
        raise SystemExit("--dataset requires --model (use --workloads for lists)")
    return _parse_workloads(default)


def _sweep_request(args: argparse.Namespace, experiment: str) -> ExperimentRequest:
    """The sweep/pareto request for the space arguments."""
    if args.smoke:
        workloads = _selected_workloads(args, SMOKE_WORKLOADS)
        pes, buffers, rates = SMOKE_PES, SMOKE_BUFFERS, SMOKE_RATES
        sample, seed = None, 0
    else:
        workloads = _selected_workloads(args, args.workloads)
        pes, buffers, rates = args.pes, args.buffers, args.pruning_rates
        sample, seed = args.sample, args.seed
    params = {
        "pes": list(_parse_list(pes, int)),
        "buffers": list(_parse_list(buffers, int)),
        "pruning_rates": list(_parse_list(rates, float)),
        "sample": sample,
        "seed": seed,
    }
    if experiment == "pareto":
        params["objectives"] = list(_parse_list(args.objectives, str))
    return ExperimentRequest(
        experiment=experiment,
        workloads=tuple(workloads),
        params=params,
        fidelity=args.fidelity,
    )


def _run_options(args: argparse.Namespace) -> RunOptions:
    return RunOptions(use_cache=not args.no_cache, cache_dir=args.cache_dir)


def _check_export_suffix(path: str | None) -> None:
    """Reject unsupported export suffixes before the sweep runs, not after."""
    if path is not None and Path(path).suffix.lower() not in (".csv", ".json"):
        raise ValueError(
            f"unsupported export suffix {Path(path).suffix!r}; use .csv or .json"
        )


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.explore.report import export_records, format_records_table

    _check_export_suffix(args.out)
    result = run_experiment(_sweep_request(args, "sweep"), _run_options(args))
    records = result.native["records"]
    # attrgetter keeps the million-record sort off the Python bytecode path.
    ranked = sorted(records, key=operator.attrgetter("latency_us"))
    print(format_records_table(ranked, limit=args.top))
    elapsed = sum(result.stage_seconds.values())
    print(f"\n{result.native['stats']} in {elapsed:.2f}s")
    if args.out:
        export_records(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    from repro.explore.pareto import parse_objectives, pareto_by_workload
    from repro.explore.report import export_records, format_frontier, load_records

    _check_export_suffix(args.export)
    objectives = parse_objectives(_parse_list(args.objectives, str))
    if getattr(args, "from_file", None):
        records = load_records(args.from_file)
        print(f"loaded {len(records)} records from {args.from_file}")
        frontiers = pareto_by_workload(records, objectives)
    else:
        result = run_experiment(_sweep_request(args, "pareto"), _run_options(args))
        elapsed = sum(result.stage_seconds.values())
        print(f"{result.native['stats']} in {elapsed:.2f}s")
        frontiers = result.native["frontiers"]
    combined = []
    for workload in sorted(frontiers):
        frontier = frontiers[workload]
        combined.extend(frontier)
        print()
        print(f"[{workload}]")
        print(format_frontier(frontier, objectives))
    if args.export:
        export_records(combined, args.export)
        print(f"\nwrote {len(combined)} frontier records to {args.export}")
    return 0


def _fig_workloads(args: argparse.Namespace) -> tuple[tuple[str, str], ...]:
    from repro.eval.fig8 import (
        EXTENDED_FIG8_WORKLOADS,
        PAPER_FIG8_WORKLOADS,
        QUICK_FIG8_WORKLOADS,
    )

    if getattr(args, "extended", False):
        return EXTENDED_FIG8_WORKLOADS
    return PAPER_FIG8_WORKLOADS if args.paper else QUICK_FIG8_WORKLOADS


def _run_fig(args: argparse.Namespace, experiment: str) -> int:
    from repro.eval.common import ExperimentScale

    request = ExperimentRequest(
        experiment=experiment,
        workloads=_fig_workloads(args),
        pruning_rate=args.pruning_rate,
        scale=ExperimentScale.thorough() if args.thorough else None,
    )
    result = run_experiment(request, _run_options(args))
    print(result.summary)
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    return _run_fig(args, "fig8")


def cmd_fig9(args: argparse.Namespace) -> int:
    return _run_fig(args, "fig9")


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import check_regression, run_bench

    baseline = None
    if args.check:
        # Read the baseline *before* the run: with the default --out the run
        # overwrites BENCH_repro.json, and the committed numbers must be in
        # hand first.
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            print(f"error: baseline {args.baseline} not found", file=sys.stderr)
            return 2
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    result = run_bench(
        smoke=args.smoke,
        out=args.out,
        options=_run_options(args),
        pruning_rate=args.pruning_rate,
    )
    print(result.format())
    print(f"wrote {args.out}")
    if baseline is None:
        return 0
    violations, checked = check_regression(
        result.to_payload(), baseline, tolerance=args.tolerance
    )
    print(f"\nregression check vs {args.baseline} (tolerance {args.tolerance:.0%}):")
    for note in checked:
        print(f"  {note}")
    if violations:
        for violation in violations:
            print(f"REGRESSION: {violation}", file=sys.stderr)
        return 1
    print("no regression: all checks within tolerance")
    return 0


def _parse_set_params(pairs: Sequence[str]) -> dict:
    """Parse ``--set key=value`` pairs; values are JSON when they parse."""
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def request_from_args(args: argparse.Namespace) -> ExperimentRequest:
    """The request described by the shared run/submit experiment flags.

    ``repro run`` executes it locally; ``repro submit`` ships it to the job
    service — one builder, so both front ends produce the same request (and
    the same content hash) for the same flags.
    """
    from repro.eval.common import ExperimentScale

    scale_name = "smoke" if args.smoke else args.scale
    workloads: tuple[tuple[str, str], ...] = ()
    if args.workloads:
        workloads = tuple(_parse_workloads(args.workloads))
    return ExperimentRequest(
        experiment=args.experiment,
        workloads=workloads,
        pruning_rate=args.pruning_rate,
        scale=ExperimentScale.preset(scale_name),
        params=tuple(_parse_set_params(args.set or []).items()),
        fidelity=getattr(args, "fidelity", DEFAULT_FIDELITY.value),
    )


def cmd_run(args: argparse.Namespace) -> int:
    request = request_from_args(args)
    result = run_experiment(request, _run_options(args))
    text = result.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    if args.json:
        print(text)
    else:
        print(result.summary)
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    # Experiments that self-check (analytic-validate) declare pass/fail in
    # ``payload["ok"]``; surface a failure as a non-zero exit so CI can gate
    # on ``repro run analytic-validate`` directly.
    return 0 if result.payload.get("ok", True) else 1


def _trace_job(args: argparse.Namespace) -> int:
    """``repro trace --job``: export a job's merged distributed trace.

    Two sources for the same document: with ``--db`` the job row and span
    spools are read straight off disk (works with the service down — crash
    forensics); otherwise the running service's ``GET /jobs/<id>/trace``
    endpoint is asked (works from any machine that can reach it).
    """
    if args.db:
        from repro.obs.sink import merge_trace, obs_dir_for, read_spans
        from repro.serve.store import JobStore, UnknownJobError

        with JobStore(args.db) as store:
            try:
                job = store.find(args.job)
            except UnknownJobError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            spans = (
                read_spans(obs_dir_for(store.path), trace_id=job.trace_id)
                if job.trace_id
                else []
            )
            document = merge_trace(spans, job=job.to_dict(include_result=False))
    else:
        from repro.serve.client import DEFAULT_URL, ServeClient, ServeError

        try:
            document = ServeClient(args.url or DEFAULT_URL).trace(args.job)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    Path(args.out).write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )
    meta = document.get("metadata") or {}
    wait = meta.get("queue_wait_s")
    print(
        f"job {str(meta.get('job_id'))[:12]} trace {meta.get('trace_id')}: "
        f"{meta.get('span_count', 0)} span(s) from "
        f"{len(meta.get('pids') or [])} process(es) "
        f"{meta.get('pids')}, queue wait "
        f"{'n/a' if wait is None else f'{wait:.3f}s'}"
    )
    print(
        f"wrote {args.out} "
        "(load in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one experiment and dump its Chrome-trace (Perfetto-loadable)."""
    from repro.obs import TRACE

    if args.job:
        return _trace_job(args)
    if not args.experiment:
        print(
            "error: an experiment name (or --job <id>) is required",
            file=sys.stderr,
        )
        return 2
    request = request_from_args(args)
    TRACE.clear()  # the exported file covers exactly this run
    result = run_experiment(request, _run_options(args))
    print(result.summary)
    spans = TRACE.write_chrome_trace(args.out)
    print(
        f"wrote {spans} span(s) to {args.out} "
        "(load in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    experiments = list_experiments()
    categories: dict[str, list] = {}
    for experiment in experiments:
        categories.setdefault(experiment.category, []).append(experiment)
    print("experiments ([fidelity] = accepts --fidelity analytic|vectorized|scalar):")
    for category in sorted(categories):
        print(f"  {category}:")
        for experiment in categories[category]:
            marker = "[fidelity] " if experiment.supports_fidelity else ""
            print(f"    {experiment.name:<18} {marker}{experiment.description}")
    print()
    print("workloads (any registered model x dataset):")
    for workload in list_workloads():
        print(
            f"  {workload.name:<14} family={workload.family:<10} "
            f"datasets={','.join(workload.datasets)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "SparseTrain reproduction: registry-driven experiments, sweeps, "
            "Pareto analysis, paper figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="list registered experiments and workloads")
    listing.set_defaults(func=cmd_list)

    def _add_request_arguments(
        parser: argparse.ArgumentParser, experiment_required: bool = True
    ) -> None:
        """The shared experiment-request flags of `run` and `trace`."""
        if experiment_required:
            parser.add_argument(
                "experiment", help="registered experiment name (see `repro list`)"
            )
        else:
            parser.add_argument(
                "experiment", nargs="?", default=None,
                help="registered experiment name (omit with --job)",
            )
        parser.add_argument(
            "--workloads", default=None,
            help="comma-separated <model>/<dataset> pairs (default: the experiment's grid)",
        )
        parser.add_argument("--pruning-rate", type=float, default=0.9)
        parser.add_argument(
            "--scale", choices=("quick", "thorough", "smoke"), default="quick",
            help="experiment scale preset (default: %(default)s)",
        )
        parser.add_argument(
            "--smoke", action="store_true", help="shorthand for --scale smoke"
        )
        parser.add_argument(
            "--fidelity",
            choices=FIDELITY_CHOICES,
            default=DEFAULT_FIDELITY.value,
            help="cost-model tier (experiments marked [fidelity] in `repro list`)",
        )
        parser.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="experiment-specific parameter (JSON values accepted; repeatable)",
        )
        parser.add_argument(
            "--cache-dir", default=DEFAULT_CACHE_DIR,
            help="persistent stage-cache directory (default: %(default)s)",
        )
        parser.add_argument(
            "--no-cache", action="store_true",
            help="disable the persistent stage caches",
        )

    run = sub.add_parser("run", help="run any registered experiment by name")
    _add_request_arguments(run)
    run.add_argument(
        "--json", action="store_true",
        help="print the full JSON ExperimentResult instead of the summary",
    )
    run.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSON ExperimentResult to FILE",
    )
    run.set_defaults(func=cmd_run)

    trace = sub.add_parser(
        "trace",
        help="run an experiment (or export a service job's merged distributed "
             "trace with --job) as a Chrome-trace JSON",
    )
    _add_request_arguments(trace, experiment_required=False)
    trace.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="Chrome-trace output file (default: %(default)s)",
    )
    trace.add_argument(
        "--job", default=None, metavar="ID",
        help="export the merged fleet trace of this service job id (or "
             "unique prefix) instead of running an experiment",
    )
    trace.add_argument(
        "--url", default=None, metavar="URL",
        help="service URL for --job (default: the local service)",
    )
    trace.add_argument(
        "--db", default=None, metavar="PATH",
        help="with --job: read the job store + span spools straight off "
             "disk instead of asking a running service",
    )
    trace.set_defaults(func=cmd_trace)

    sweep = sub.add_parser("sweep", help="run a design-space sweep")
    _add_space_arguments(sweep)
    _add_engine_arguments(sweep)
    sweep.add_argument(
        "--top", type=int, default=16, metavar="N",
        help="rows of the latency-ranked table to print (default: %(default)s)",
    )
    sweep.add_argument("--out", default=None, help="export records to a .csv/.json file")
    sweep.set_defaults(func=cmd_sweep)

    pareto = sub.add_parser("pareto", help="extract per-workload Pareto frontiers")
    _add_space_arguments(pareto)
    _add_engine_arguments(pareto)
    pareto.add_argument(
        "--from", dest="from_file", default=None, metavar="FILE",
        help="load records from a previous sweep export instead of sweeping",
    )
    pareto.add_argument(
        "--objectives",
        default="latency_us,energy_uj,area_mm2",
        help="comma-separated objectives, optionally name:min|max (default: %(default)s)",
    )
    pareto.add_argument(
        "--export", default=None, help="export frontier records to a .csv/.json file"
    )
    pareto.set_defaults(func=cmd_pareto)

    for name, func, description in (
        ("fig8", cmd_fig8, "regenerate the Fig. 8 latency/speedup comparison"),
        ("fig9", cmd_fig9, "regenerate the Fig. 9 energy comparison"),
    ):
        fig = sub.add_parser(name, help=description)
        fig.add_argument(
            "--paper", action="store_true",
            help="run the full 9-workload paper grid (default: the quick subset)",
        )
        fig.add_argument(
            "--extended", action="store_true",
            help="run the paper grid plus the VGG-16/MobileNetV1 workloads",
        )
        fig.add_argument(
            "--thorough", action="store_true",
            help="use the larger, slower experiment scale",
        )
        fig.add_argument("--pruning-rate", type=float, default=0.9)
        fig.add_argument(
            "--cache-dir", default=DEFAULT_CACHE_DIR,
            help="directory of the measured-density cache (default: %(default)s)",
        )
        fig.add_argument(
            "--no-cache", action="store_true",
            help="measure densities fresh instead of using the disk cache",
        )
        fig.set_defaults(func=func)

    bench = sub.add_parser(
        "bench", help="time the pipeline stages and write BENCH_repro.json"
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="tiny scale for CI smoke runs (seconds instead of minutes)",
    )
    bench.add_argument(
        "--out", default="BENCH_repro.json",
        help="benchmark output file (default: %(default)s)",
    )
    bench.add_argument("--pruning-rate", type=float, default=0.9)
    bench.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="directory of the measured-density cache (default: %(default)s)",
    )
    bench.add_argument(
        "--no-cache", action="store_true",
        help="measure densities fresh instead of using the disk cache",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="after the run, compare against --baseline and exit 1 on a "
             "stage-p95 regression beyond --tolerance",
    )
    bench.add_argument(
        "--baseline", default="BENCH_repro.json", metavar="FILE",
        help="committed baseline for --check (default: %(default)s)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.2, metavar="FRACTION",
        help="--check relative tolerance band (default: %(default)s = 20%%)",
    )
    bench.set_defaults(func=cmd_bench)

    from repro.serve.cli import register_serve_commands

    register_serve_commands(sub, default_cache_dir=DEFAULT_CACHE_DIR)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        # Bad axis values, unknown experiment/workload/objective names,
        # missing --from files: report cleanly (with the registry's listing
        # of valid names where applicable) instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (`repro submit ... | head`): exit with
        # the conventional SIGPIPE status, and point stdout at /dev/null so
        # the interpreter's shutdown flush doesn't print a second traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
