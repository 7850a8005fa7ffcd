"""Command-line interface: regenerate any paper figure or table.

Usage::

    opm-repro list
    opm-repro run fig7 [--full] [--csv-dir results/]
    opm-repro run all --jobs 4 --journal batch.jsonl
    opm-repro run all --resume batch.jsonl
    opm-repro run fig6 --trace run.jsonl
    opm-repro cache stats
    opm-repro profile fig6
    opm-repro trace tree run.jsonl
    opm-repro trace critical-path run.jsonl
    opm-repro trace top run.jsonl --format json
    opm-repro trace flame run.jsonl -o run.folded
    opm-repro audit src/repro --format json
    opm-repro serve --port 8177 --jobs 4
    opm-repro serve-bench -o BENCH_serve.json
    python -m repro run table4

Every ``run``, ``report`` and ``profile`` goes through the
:mod:`repro.runtime` scheduler: experiments fan out across ``--jobs``
worker processes and, for ``run`` and ``report`` unless ``--no-cache``
is given, unchanged results replay from the content-addressed cache in
milliseconds. Parallel, serial, and cached paths print byte-identical
tables; a batch summary goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.experiments import all_experiments


def _positive(cast):
    """argparse ``type=``: ``cast`` the text and require a value > 0."""
    return _checked(cast, "> 0", lambda value: value > 0)


def _non_negative(cast):
    """argparse ``type=``: ``cast`` the text and require a value >= 0."""
    return _checked(cast, ">= 0", lambda value: value >= 0)


def _checked(cast, rule, ok):
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opm-repro",
        description=(
            "Reproduction of 'Exploring and Analyzing the Real Impact of "
            "Modern On-Package Memory on HPC Scientific Kernels' (SC '17)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list all experiment ids")
    validatep = sub.add_parser(
        "validate",
        help="cross-validate the analytic model against the exact simulator",
    )
    validatep.add_argument(
        "--sampled",
        action="store_true",
        help="use the streaming sampled stack-distance estimator "
        "(bounded memory; adds the instrumented sparse kernels)",
    )
    validatep.add_argument(
        "--window",
        type=_checked(int, ">= 2", lambda value: value >= 2),
        default=4096,
        help="sampling window length in references (with --sampled)",
    )
    validatep.add_argument(
        "--period",
        type=_positive(int),
        default=4,
        help="analyze one in PERIOD windows (with --sampled)",
    )
    reportp = sub.add_parser(
        "report", help="generate the full Markdown reproduction report"
    )
    reportp.add_argument("-o", "--output", default="report.md")
    reportp.add_argument("--full", action="store_true")
    reportp.add_argument(
        "experiments",
        nargs="*",
        help="restrict to these experiment ids (default: all)",
    )
    reportp.add_argument(
        "--jobs",
        type=_positive(int),
        default=1,
        metavar="N",
        help="worker processes (default: 1 = in-process)",
    )
    reportp.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the result cache",
    )
    reportp.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: ~/.cache/opm-repro "
        "or $OPM_REPRO_CACHE_DIR)",
    )
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment", help="experiment id (fig1..fig30, table2..table5, eq1, all)")
    runp.add_argument(
        "--full",
        action="store_true",
        help="paper-scale sweeps (default: reduced quick sweeps)",
    )
    runp.add_argument(
        "--csv-dir",
        default=None,
        help="also write each result table as CSV under this directory",
    )
    runp.add_argument(
        "--svg-dir",
        default=None,
        help="also render figure-shaped tables as SVG under this directory",
    )
    runp.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "enable telemetry and stream spans + run manifests to PATH "
            "as JSONL; a cache hit records only its lookup, so add "
            "--no-cache (or use 'profile') to trace the computation"
        ),
    )
    runp.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the ASCII rendering (useful with --csv-dir)",
    )
    runp.add_argument(
        "--jobs",
        type=_positive(int),
        default=1,
        metavar="N",
        help="worker processes (default: 1 = in-process)",
    )
    runp.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the result cache",
    )
    runp.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: ~/.cache/opm-repro "
        "or $OPM_REPRO_CACHE_DIR)",
    )
    runp.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write per-task status JSONL to PATH (enables later --resume)",
    )
    runp.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help=(
            "resume an interrupted batch: skip tasks already 'done' in "
            "this journal, append new events to it"
        ),
    )
    runp.add_argument(
        "--timeout",
        type=_positive(float),
        default=None,
        metavar="SECS",
        help=(
            "per-task timeout, measured from each task's own start on a "
            "worker (with --jobs 1 the batch runs on one worker); a task "
            "past its deadline is journaled as 'timeout', its hung worker "
            "is killed and replaced, and the task is retried like a failure"
        ),
    )
    runp.add_argument(
        "--retries",
        type=_non_negative(int),
        default=1,
        metavar="N",
        help=(
            "extra attempts for a task whose execution raised or timed "
            "out (default 1)"
        ),
    )
    runp.add_argument(
        "--backoff",
        type=_non_negative(float),
        default=0.0,
        metavar="SECS",
        help=(
            "base delay before retrying a failed or timed-out task, "
            "doubling per attempt (default 0 = retry immediately)"
        ),
    )
    runp.add_argument(
        "--backoff-max",
        type=_non_negative(float),
        default=30.0,
        metavar="SECS",
        help="ceiling for one exponential-backoff delay (default 30)",
    )
    cachep = sub.add_parser(
        "cache", help="inspect or clear the content-addressed result cache"
    )
    cache_sub = cachep.add_subparsers(dest="cache_command", required=True)
    for name, help_text in [
        ("stats", "show entry count, size, and hit/miss counters"),
        ("clear", "delete every cached result"),
    ]:
        sp = cache_sub.add_parser(name, help=help_text)
        sp.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="result cache location (default: ~/.cache/opm-repro "
            "or $OPM_REPRO_CACHE_DIR)",
        )
    profilep = sub.add_parser(
        "profile",
        help=(
            "run experiments with telemetry enabled and without the "
            "cache, and print the per-phase wall/self-time breakdown"
        ),
    )
    profilep.add_argument("experiment", help="experiment id (or 'all')")
    profilep.add_argument(
        "--full",
        action="store_true",
        help="paper-scale sweeps (default: reduced quick sweeps)",
    )
    profilep.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also stream spans + manifests to PATH as JSONL",
    )
    profilep.add_argument(
        "--jobs",
        type=_positive(int),
        default=1,
        metavar="N",
        help=(
            "worker processes (default: 1 = in-process); worker-side "
            "spans merge into the breakdown"
        ),
    )
    tracep = sub.add_parser(
        "trace",
        help="analyze a JSONL trace file written by --trace",
    )
    trace_sub = tracep.add_subparsers(dest="trace_command", required=True)
    treep = trace_sub.add_parser(
        "tree", help="print the span forest as an indented waterfall"
    )
    treep.add_argument("path", help="JSONL trace file")
    treep.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="truncate the tree below depth N (root = 0)",
    )
    cpathp = trace_sub.add_parser(
        "critical-path",
        help="longest parent-to-child chain under the batch root",
    )
    cpathp.add_argument("path", help="JSONL trace file")
    cpathp.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    topp = trace_sub.add_parser(
        "top", help="per-span-name count/total/p50/p99 table"
    )
    topp.add_argument("path", help="JSONL trace file")
    topp.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    flamep = trace_sub.add_parser(
        "flame",
        help="folded stacks (self-time in µs) for flamegraph tooling",
    )
    flamep.add_argument("path", help="JSONL trace file")
    flamep.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="write folded stacks to PATH instead of stdout",
    )
    servep = sub.add_parser(
        "serve",
        help="run the memory-advisor HTTP service (POST /v1/advise)",
    )
    servep.add_argument("--host", default="127.0.0.1")
    servep.add_argument(
        "--port",
        type=_checked(int, "in 0..65535", lambda port: 0 <= port <= 65535),
        default=8177,
        help="TCP port (0 picks a free one; default 8177)",
    )
    servep.add_argument(
        "--jobs",
        type=_non_negative(int),
        default=2,
        metavar="N",
        help="worker shards for query execution (0 = inline; default 2)",
    )
    servep.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared result cache location (default: ~/.cache/opm-repro "
        "or $OPM_REPRO_CACHE_DIR)",
    )
    servep.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result caching (every query executes)",
    )
    servep.add_argument(
        "--timeout",
        type=_positive(float),
        default=30.0,
        metavar="SECS",
        help="per-execution deadline; a hung shard is recycled (default 30)",
    )
    servep.add_argument(
        "--retries",
        type=_non_negative(int),
        default=1,
        metavar="N",
        help="extra attempts after a crashed execution (default 1)",
    )
    servep.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="enable telemetry and stream spans to PATH as JSONL",
    )
    sbenchp = sub.add_parser(
        "serve-bench",
        help="load-test the advisor service and write BENCH_serve.json",
    )
    sbenchp.add_argument(
        "-o", "--output", default="BENCH_serve.json", metavar="PATH"
    )
    sbenchp.add_argument("--clients", type=_positive(int), default=8, metavar="N")
    sbenchp.add_argument(
        "--requests", type=_positive(int), default=40, metavar="N",
        help="requests per client in the mixed phase (default 40)",
    )
    sbenchp.add_argument(
        "--distinct", type=int, default=24, metavar="N",
        help="distinct advise queries in the workload (default 24)",
    )
    sbenchp.add_argument(
        "--identical", type=_positive(int), default=100, metavar="N",
        help="identical concurrent queries for the coalescing proof "
        "(default 100)",
    )
    sbenchp.add_argument(
        "--jobs", type=_non_negative(int), default=0, metavar="N",
        help="worker shards (0 = inline, the fast CI mode; default 0)",
    )
    sbenchp.add_argument("--seed", type=int, default=7)
    sbenchp.add_argument(
        "--slo-p99-ms", type=_positive(float), default=250.0, metavar="MS",
        help="advise-route p99 budget asserted by the verdict (default 250)",
    )
    energyp = sub.add_parser(
        "energy",
        help="price kernels on the per-level energy ledger "
        "(per-level breakdown + energy/time Pareto table)",
    )
    energyp.add_argument(
        "--kernel",
        default="all",
        choices=(
            "all", "stream", "gemm", "cholesky", "spmv",
            "sptrans", "sptrsv", "stencil", "fft",
        ),
        help="one kernel, or 'all' for the full suite (default all)",
    )
    energyp.add_argument(
        "--platform",
        default="all",
        choices=("all", "broadwell", "knl"),
        help="restrict the configuration sweep (default all)",
    )
    energyp.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="output format (default text)",
    )
    energyp.add_argument(
        "--scale",
        type=_checked(_positive(float), "<= 1", lambda value: value <= 1),
        default=0.001,
        metavar="X",
        help="capacity scale factor in (0, 1] for the simulated hierarchies "
        "(default 0.001, the conservation-test scale; 1 is the real machine)",
    )
    energyp.add_argument(
        "--reps",
        type=_positive(int),
        default=1,
        metavar="N",
        help="trace repetitions per run (default 1)",
    )
    from repro.audit.cli import add_audit_parser

    add_audit_parser(sub)
    return parser


def _resolve_ids(experiment: str) -> list[str] | None:
    """Expand 'all' / validate one id; print the valid ids on failure."""
    specs = all_experiments()
    if experiment == "all":
        return list(specs)
    if experiment not in specs:
        print(f"error: unknown experiment {experiment!r}", file=sys.stderr)
        print("valid ids: " + " ".join(specs), file=sys.stderr)
        return None
    return [experiment]


def _emit_result(result, args: argparse.Namespace) -> None:
    """Render one result and write its CSV/SVG side outputs."""
    if not args.quiet:
        print(result.render())
        print()
    if args.csv_dir:
        for path in result.write_csvs(args.csv_dir):
            print(f"wrote {path}", file=sys.stderr)
    if args.svg_dir:
        from repro.viz.autosvg import write_svgs

        for path in write_svgs(result, args.svg_dir):
            print(f"wrote {path}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    ids = _resolve_ids(args.experiment)
    if ids is None:
        return 2
    for out_dir in (args.csv_dir, args.svg_dir):
        if out_dir:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
    from repro import telemetry
    from repro.report import batch_summary_section
    from repro.runtime import (
        RunJournal,
        SharedResultCache,
        completed_tasks,
        run_batch,
    )

    cache = None if args.no_cache else SharedResultCache(args.cache_dir)
    journal = None
    resume_completed: set[str] = set()
    if args.resume:
        resume_completed = completed_tasks(args.resume)
        journal = RunJournal(args.resume, append=True)
    elif args.journal:
        journal = RunJournal(args.journal)
    if args.trace:
        telemetry.configure(enabled=True, trace_path=args.trace)
    try:
        summary = run_batch(
            ids,
            quick=not args.full,
            jobs=args.jobs,
            cache=cache,
            journal=journal,
            resume_completed=resume_completed,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            backoff_max=args.backoff_max,
        )
    finally:
        if journal is not None:
            journal.close()
        if args.trace:
            telemetry.disable()
    for outcome in summary.outcomes:
        if outcome.result is not None:
            _emit_result(outcome.result, args)
    print(batch_summary_section(summary), file=sys.stderr)
    if args.trace:
        print(f"wrote trace {args.trace}", file=sys.stderr)
    return 1 if summary.failed or summary.timed_out else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.runtime import SharedResultCache

    cache = SharedResultCache(args.cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    print(cache.stats().render())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    ids = _resolve_ids(args.experiment)
    if ids is None:
        return 2
    from repro import telemetry
    from repro.runtime import run_batch
    from repro.telemetry.summary import render_profile

    with telemetry.session(trace_path=args.trace):
        # No cache: a hit would profile the lookup, not the computation.
        # Pool workers ship their spans home, so --jobs N profiles the
        # same phases as a serial run.
        summary = run_batch(ids, quick=not args.full, jobs=args.jobs, cache=None)
        print(f"== profile: {', '.join(ids)} ==")
        print()
        print(
            render_profile(
                telemetry.get_tracer().finished(),
                telemetry.get_registry().snapshot(),
            )
        )
        print()
        for m in telemetry.manifests():
            rss = (
                f"{m.peak_rss_bytes / 2**20:.1f} MiB"
                if m.peak_rss_bytes
                else "n/a"
            )
            print(
                f"manifest {m.run_id}: {m.experiment_id} "
                f"({'quick' if m.quick else 'full'}) wall "
                f"{m.wall_time_s:.3f} s, peak RSS {rss}, status {m.status}"
            )
    if args.trace:
        print(f"wrote trace {args.trace}", file=sys.stderr)
    if summary.failed or summary.timed_out:
        print(summary.render(), file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import analyze

    try:
        trace = analyze.load_trace(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    json_format = getattr(args, "format", "text") == "json"
    if trace.n_skipped_lines and not json_format:
        # JSON outputs carry the count in-band as n_skipped_lines.
        print(
            f"note: skipped {trace.n_skipped_lines} undecodable line(s) "
            f"in {args.path} (truncated write?)",
            file=sys.stderr,
        )
    if args.trace_command == "tree":
        print(analyze.render_tree(trace, max_depth=args.max_depth))
        return 0
    if args.trace_command == "critical-path":
        steps = analyze.critical_path(trace)
        if json_format:
            print(analyze.critical_path_as_json(trace, steps))
        else:
            print(analyze.render_critical_path(steps))
        return 0
    if args.trace_command == "top":
        rows = analyze.aggregate_spans(trace)
        if json_format:
            print(analyze.top_as_json(trace, rows))
        else:
            print(analyze.render_top(rows))
        return 0
    lines = analyze.fold_stacks(trace)
    text = "\n".join(lines)
    if args.output:
        Path(args.output).write_text(text + "\n" if text else "")
        print(
            f"wrote {len(lines)} folded stack(s) to {args.output}",
            file=sys.stderr,
        )
    elif text:
        print(text)
    else:
        print("(no spans in trace)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro import telemetry
    from repro.serve.app import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        no_cache=args.no_cache,
        timeout_s=args.timeout,
        retries=args.retries,
    )
    if args.trace:
        telemetry.configure(enabled=True, trace_path=args.trace)
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        if args.trace:
            telemetry.disable()
            print(f"wrote trace {args.trace}", file=sys.stderr)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve.bench import MAX_DISTINCT, run_bench

    if not 1 <= args.distinct <= MAX_DISTINCT:
        print(
            f"error: --distinct {args.distinct}: the query population holds "
            f"1..{MAX_DISTINCT} distinct advise queries",
            file=sys.stderr,
        )
        return 2
    doc = run_bench(
        out=Path(args.output),
        clients=args.clients,
        requests_per_client=args.requests,
        distinct=args.distinct,
        identical=args.identical,
        seed=args.seed,
        jobs=args.jobs,
        slo_p99_ms=args.slo_p99_ms,
    )
    verdict = doc["verdict"]
    mixed = doc["mixed"]
    print(
        f"serve-bench: {mixed['requests']} requests in "
        f"{mixed['elapsed_s']:.2f}s ({mixed['throughput_rps']:.0f} rps), "
        f"advise p50 {mixed['routes']['advise']['p50_ms']:.2f} ms / "
        f"p99 {mixed['routes']['advise']['p99_ms']:.2f} ms"
    )
    print(
        f"coalescing proof: {doc['proof']['identical_concurrent']} identical "
        f"concurrent -> {doc['proof']['engine_executions']} engine "
        f"execution(s); coalesced ratio "
        f"{doc['ratios']['coalesced']:.2f}, cache-hit ratio "
        f"{doc['ratios']['cache_hit']:.2f}"
    )
    print(f"wrote {args.output}")
    if not verdict["ok"]:
        failed = [
            k
            for k in ("slo_ok", "coalescing_ok", "no_failures")
            if not verdict[k]
        ]
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    """Price kernels on the energy ledger; non-zero exit on violations."""
    import json

    from repro.experiments.results import DataTable
    from repro.power.ledger import (
        DEMO_KERNELS,
        ENERGY_CONFIGS,
        demo_kernel,
        pareto_front,
        platform_pareto,
        price_config,
    )

    kernel_names = DEMO_KERNELS if args.kernel == "all" else [args.kernel]
    configs = [
        (platform, mode)
        for platform, mode in ENERGY_CONFIGS
        if args.platform in ("all", platform)
    ]
    payload = []
    violations: list[str] = []
    for name in kernel_names:
        try:
            runs = [
                price_config(
                    demo_kernel(name), platform, mode,
                    scale=args.scale, reps=args.reps,
                )
                for platform, mode in configs
            ]
        except ValueError as exc:  # --reps repetitions exceed the trace guard
            print(f"error: argument --reps: {exc}", file=sys.stderr)
            return 2
        flags = pareto_front(runs)
        platform_flags = platform_pareto(runs)
        for run_ in runs:
            violations.extend(
                f"{name} {run_.platform}/{run_.mode}: {v}"
                for v in run_.ledger.conservation_violations()
            )
        payload.append(
            {
                "kernel": name,
                "runs": [
                    {
                        **run_.as_dict(),
                        "ledger": run_.ledger.as_dict(),
                        "pareto": flag,
                        "platform_pareto": pflag,
                    }
                    for run_, flag, pflag in zip(runs, flags, platform_flags)
                ],
            }
        )
        if args.format == "text":
            level_rows = [
                (f"{r.platform}/{r.mode}", lv.name, lv.hits, lv.misses,
                 lv.fills, lv.writebacks, lv.dynamic_j)
                for r in runs
                for lv in r.ledger.levels
            ]
            print(f"== {name} ==")
            print(
                DataTable(
                    "levels",
                    ("config", "level", "hits", "misses", "fills",
                     "writebacks", "dynamic_j"),
                    level_rows,
                ).render(max_rows=len(level_rows))
            )
            pareto_rows = [
                (f"{r.platform}/{r.mode}", r.seconds, r.energy_j, r.edp_js,
                 r.gflops_per_watt,
                 "*" if f else "", "*" if pf else "")
                for r, f, pf in zip(runs, flags, platform_flags)
            ]
            print(
                DataTable(
                    "pareto",
                    ("config", "seconds", "energy_j", "edp_js",
                     "gflops_per_watt", "pareto", "platform_pareto"),
                    pareto_rows,
                ).render()
            )
            print()
    if args.format == "json":
        print(
            json.dumps(
                {"kernels": payload, "violations": violations}, indent=2
            )
        )
    if violations:
        for violation in violations:
            print(f"CONSERVATION VIOLATION: {violation}", file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for exp_id, spec in all_experiments().items():
            print(f"{exp_id:<8} {spec.paper_artifact:<24} {spec.title}")
        return 0
    if args.command == "validate":
        from repro.validation import report, validate_all

        if args.sampled:
            from repro.kernels import SpmvKernel, SptrsvKernel
            from repro.sparse import generators
            from repro.trace import chunk_arrays, expand_lines
            from repro.validation import (
                validate_case_streamed,
                validate_kernel_streamed,
                workload_zoo,
            )

            cases = []
            for name, factory in workload_zoo().items():
                addrs, wr = factory()
                lines, lw = expand_lines(addrs, 8, wr)
                cases.append(
                    validate_case_streamed(
                        name,
                        chunk_arrays(lines, lw, 1 << 14),
                        window=args.window,
                        period=args.period,
                    )
                )
            # The sparse solvers on generated matrices stand in for the
            # paper's UF-matrix runs: their chunked traces stream through
            # simulator and estimator without ever materializing.
            for kernel in (
                SpmvKernel.from_matrix(generators.random_uniform(600, 6000, seed=7)),
                SptrsvKernel.from_matrix(generators.banded(600, 4000, seed=8)),
            ):
                cases.append(
                    validate_kernel_streamed(
                        kernel, window=args.window, period=args.period
                    )
                )
            print(report(cases))
            return 0
        print(report(validate_all()))
        return 0
    if args.command == "report":
        specs = all_experiments()
        unknown = [e for e in args.experiments if e not in specs]
        if unknown:
            print(
                "error: unknown experiment(s) " + ", ".join(map(repr, unknown)),
                file=sys.stderr,
            )
            print("valid ids: " + " ".join(specs), file=sys.stderr)
            return 2
        from repro import report as report_mod
        from repro.runtime import SharedResultCache

        cache = None if args.no_cache else SharedResultCache(args.cache_dir)
        path = report_mod.write(
            args.output,
            quick=not args.full,
            experiment_ids=args.experiments or None,
            jobs=args.jobs,
            cache=cache,
        )
        print(f"wrote {path}")
        return 0
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "energy":
        return _cmd_energy(args)
    if args.command == "audit":
        from repro.audit.cli import main as audit_main

        return audit_main(args)
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    try:
        sys.exit(main())
    except BrokenPipeError:
        # `repro trace tree run.jsonl | head` closes stdout early;
        # exit with SIGPIPE's conventional status instead of a traceback.
        sys.exit(141)
