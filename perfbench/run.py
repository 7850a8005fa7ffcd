"""The repo's benchmark of record: ``replay``, ``sweep`` and ``serve``.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run (see perfbench/README.md for every metric).

Everything the program does runs in child processes (perfbench/worker.py),
each a fresh interpreter. ``replay`` and ``sweep`` run one
``runtime.run_batch`` per child, repeated until ``--seconds`` have
passed; ``serve`` drives one advisor server over two keep-alive
connections for ``--seconds``. Every time is rescaled to a reference
host speed by a probe sampled inside the child while it works (see
``worker.SpeedProbe``). Correctness is checked outside the timing:
experiment results against committed digests, served answers against
the offline advisor.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from worker import SpeedProbe, probe_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"

#: The experiments whose time is trace replay; every other one is analytic.
REPLAY_IDS = ("ext4", "ext8")
#: Start-up is sampled at least this many times per run.
SETUP_SAMPLES = 3
#: ``replay`` and ``sweep`` median over at least this many passes.
MIN_PASSES = 2
#: ``serve`` reports ``wall_s`` as the median time of this many requests.
SERVE_BLOCK = 500


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed operation)."""


def _percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Children:
    """Starts worker processes inside the checkout and always reaps them."""

    def __init__(self, work: Path) -> None:
        self.env = dict(
            os.environ,
            TMPDIR=str(work),
            OPM_REPRO_CACHE_DIR=str(work / "cache"),
        )
        self.procs: list[subprocess.Popen] = []

    def start(self, *args: str) -> tuple[subprocess.Popen, dict, float]:
        """Start a worker; returns it, its ready line and its start-up time,
        rescaled by the worker's speed probe."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            # Its own process group, so reap() also stops the server's
            # pool worker.
            start_new_session=True,
        )
        self.procs.append(proc)
        ready = self.read_line(proc)
        return proc, ready, SpeedProbe.scale(time.perf_counter() - start, ready["probe"])

    @staticmethod
    def read_line(proc: subprocess.Popen) -> dict:
        line = proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited early with code {proc.wait()}")
        return json.loads(line)

    def finish(self, proc: subprocess.Popen) -> dict:
        """Read a worker's result line and wait for it to exit."""
        doc = self.read_line(proc)
        if proc.wait(timeout=60) != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return doc

    def reap(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()


# -- replay and sweep ----------------------------------------------------------


def _reference_digests() -> dict[str, dict[str, str]]:
    """Committed result digests: ``{"quick": {id: sha256}, "full": {...}}``."""
    return json.loads(DIGESTS.read_text())


def _experiment_ids() -> list[str]:
    digests = _reference_digests()
    return sorted({*digests["quick"], *digests["full"]})


def _batch_ids(workload: str, seed: int) -> tuple[list[str], bool]:
    """The seeded experiment order and whether it runs at paper scale.

    ``sweep`` runs every experiment with a paper-scale reference digest:
    every registered one except the two replay experiments.
    """
    if workload == "replay":
        ids, quick = list(REPLAY_IDS), True
    else:
        ids, quick = list(_reference_digests()["full"]), False
    random.Random(seed).shuffle(ids)
    return ids, quick


def _batch_pass(children: Children, ids: list[str], quick: bool, trace: bool) -> dict:
    args = ["batch", "--ids", ",".join(ids)]
    if not quick:
        args.append("--full")
    if trace:
        args.append("--trace")
    proc, _, setup_s = children.start(*args)
    doc = children.finish(proc)
    doc["setup_s"] = setup_s
    return doc


def _check_outcomes(passes: list[dict], quick: bool) -> tuple[int, int]:
    """(attempted, failed): an experiment fails if it raised or if its
    result digest differs from the committed reference."""
    reference = _reference_digests()["quick" if quick else "full"]
    attempted = failed = 0
    for p in passes:
        for o in p["outcomes"]:
            attempted += 1
            if o["status"] != "done" or o["digest"] != reference.get(o["id"]):
                failed += 1
                print(f"perfbench: {o['id']} failed: {o['error'] or 'digest mismatch'}",
                      file=sys.stderr)
    return attempted, failed


def _batch_e2e(passes: list[dict], setups: list[float]) -> dict:
    durations = [o["scaled_s"] * 1e3 for p in passes for o in p["outcomes"]]
    return {
        "wall_s": _metric(statistics.median(p["scaled_wall_s"] for p in passes), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "op_p90_ms": _metric(_percentile(durations, 90), "ms"),
    }


def run_batch_workload(children: Children, workload: str, seed: int,
                       seconds: float, trace: bool) -> dict:
    ids, quick = _batch_ids(workload, seed)

    def probe() -> float:
        proc, _, setup_s = children.start("batch", "--ids", ids[0], "--setup-only")
        proc.wait()
        return setup_s

    begin = time.perf_counter()
    if trace:
        plain = _batch_pass(children, ids, quick, trace=False)
        traced = _batch_pass(children, ids, quick, trace=True)
        attempted, failed = _check_outcomes([plain, traced], quick)
        metrics = _batch_layers(traced, plain)
    else:
        setups = [probe() for _ in range(SETUP_SAMPLES - 1)]
        passes: list[dict] = []
        last = 0.0
        # At least MIN_PASSES; then another pass unless it would end well
        # past the window.
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - begin + last / 2 < seconds):
            started = time.perf_counter()
            passes.append(_batch_pass(children, ids, quick, trace=False))
            last = time.perf_counter() - started
            setups.append(passes[-1]["setup_s"])
        attempted, failed = _check_outcomes(passes, quick)
        metrics = _batch_e2e(passes, setups)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# -- serve ---------------------------------------------------------------------


def _healthy(port: int) -> bool:
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=5) as r:
            return r.status == 200
    except OSError:
        return False


def _start_server(children: Children, cache_dir: Path,
                  *args: str) -> tuple[subprocess.Popen, float]:
    """Start a server; start-up ends when ``/healthz`` answers."""
    start = time.perf_counter()
    proc, ready, _ = children.start("serve", "--cache-dir", str(cache_dir), *args)
    while not _healthy(ready["port"]):
        if proc.poll() is not None:
            raise BenchError("server exited before answering /healthz")
        time.sleep(0.005)
    return proc, SpeedProbe.scale(time.perf_counter() - start, ready["probe"])


def _command(children: Children, proc: subprocess.Popen, line: str) -> dict:
    proc.stdin.write(line + "\n")
    proc.stdin.flush()
    return children.finish(proc)


def _serve_window(children: Children, work: Path, seed: int, seconds: float,
                  trace: bool, tag: str) -> dict:
    """One server, fresh cache, ``seconds`` of seeded traffic from its own
    event loop; returns the server's report and its start-up time."""
    args = ["--seed", str(seed), "--seconds", str(seconds)] + (["--trace"] if trace else [])
    proc, setup_s = _start_server(children, work / f"cache-{tag}", *args)
    window = _command(children, proc, "go")
    window["setup_s"] = setup_s
    window["start"] = min(r["start"] for r in window["requests"])
    window["blocks"] = _blocks(window)
    return window


def _blocks(window: dict) -> list[tuple[float, float]]:
    """(end, rescaled wall time) of consecutive blocks of ``SERVE_BLOCK``
    replies; each block is rescaled by the probe samples taken during it."""
    ends = sorted(r["end"] for r in window["requests"])
    starts = [window["start"]] + ends
    blocks = []
    for k in range(0, len(ends) - SERVE_BLOCK + 1, SERVE_BLOCK):
        begin, end = starts[k], ends[k + SERVE_BLOCK - 1]
        summary = probe_summary(window["probe"], begin, end)
        blocks.append((end, SpeedProbe.scale(end - begin, summary) / (end - begin)))
    if not blocks:
        raise BenchError(f"fewer than {SERVE_BLOCK} requests were served")
    return blocks


def _block_wall(window: dict) -> float:
    """Median rescaled wall time of the blocks of ``SERVE_BLOCK`` replies."""
    ends = [window["start"]] + [end for end, _ in window["blocks"]]
    return statistics.median(
        (ends[k + 1] - ends[k]) * factor for k, (_, factor) in enumerate(window["blocks"])
    )


def _latencies_ms(window: dict, tiers: tuple = ("hot", "disk", "miss")) -> list[float]:
    """Client latencies, each rescaled like the block its reply ended in."""
    blocks = window["blocks"]
    ends = [end for end, _ in blocks]
    return [
        r["latency_s"] * 1e3 * blocks[min(bisect.bisect_left(ends, r["end"]), len(blocks) - 1)][1]
        for r in window["requests"] if r["tier"] in tiers
    ]


def _serve_e2e(window: dict, setups: list[float]) -> dict:
    return {
        "wall_s": _metric(_block_wall(window), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(window["peak_rss_mb"], "MB"),
        "op_p90_ms": _metric(_percentile(_latencies_ms(window), 90), "ms"),
    }


def run_serve_workload(children: Children, work: Path, seed: int,
                       seconds: float, trace: bool) -> dict:
    if trace:
        plain = _serve_window(children, work, seed, seconds / 2, False, "plain")
        traced = _serve_window(children, work, seed, seconds / 2, True, "traced")
        metrics = _serve_layers(traced, plain)
        windows = [plain, traced]
    else:
        setups = []
        for k in range(SETUP_SAMPLES - 1):
            proc, setup_s = _start_server(children, work / f"cache-probe{k}")
            _command(children, proc, "stop")
            setups.append(setup_s)
        measured = _serve_window(children, work, seed, seconds, False, "run")
        metrics = _serve_e2e(measured, setups + [measured["setup_s"]])
        windows = [measured]
    return {
        "attempted": sum(len(w["requests"]) for w in windows),
        "failed": sum(w["failed"] for w in windows),
        "metrics": metrics,
    }


# -- per-layer metrics (traced runs) ---------------------------------------------


def _layer_metrics(layers: dict) -> dict:
    """The per-layer metrics every workload reports, from one traced
    process's (or server's merged) measurements."""
    self_s = layers["self_s"]
    calls = layers["calls"]
    counts = layers["counts"]
    out = {
        "experiments.self_s": _metric(self_s.get("experiments", 0.0), "s"),
        "kernels.profile_s": _metric(self_s.get("kernels.profile", 0.0), "s"),
        "kernels.profile_calls": _metric(calls.get("kernels.profile", 0), "count"),
        "kernels.trace_s": _metric(self_s.get("kernels.trace", 0.0), "s"),
        "kernels.trace_refs": _metric(counts.get("kernels.trace.refs", 0), "count"),
    }
    for kind in ("prefetch", "plain"):
        name = f"memory.replay_{kind}"
        out[f"{name}_s"] = _metric(self_s.get(name, 0.0), "s")
        out[f"{name}_refs"] = _metric(counts.get(f"{name}.refs", 0), "count")
    out["memory.replay_calls"] = _metric(
        calls.get("memory.replay_prefetch", 0) + calls.get("memory.replay_plain", 0),
        "count",
    )
    n_est = calls.get("engine.estimate", 0)
    est_s = self_s.get("engine.estimate", 0.0)
    out.update({
        "engine.estimate_s": _metric(est_s, "s"),
        "engine.estimate_calls": _metric(n_est, "count"),
        "engine.estimate_us": _metric(est_s / n_est * 1e6 if n_est else 0.0, "us"),
        "sparse.schedule_s": _metric(self_s.get("sparse.schedule", 0.0), "s"),
        "sparse.schedule_calls": _metric(calls.get("sparse.schedule", 0), "count"),
        "sparse.collection_s": _metric(self_s.get("sparse.collection", 0.0), "s"),
        "sparse.collection_calls": _metric(calls.get("sparse.collection", 0), "count"),
        "power.price_s": _metric(self_s.get("power.price", 0.0), "s"),
        "power.price_calls": _metric(calls.get("power.price", 0), "count"),
    })
    for exp_id in _experiment_ids():
        out[f"experiments.{exp_id}.wall_s"] = _metric(
            layers["experiments"].get(exp_id, 0.0), "s"
        )
    return out


def _empty_serve_metrics() -> dict:
    zero_ms = ("handle", "transport", "batch_wait", "pool", "evaluate", "hit")
    out = {f"serve.{n}_p50_ms": _metric(0.0, "ms") for n in zero_ms}
    for name in ("advise_p50", "advise_p99", "miss_p50", "miss_p99"):
        out[f"serve.{name}_ms"] = _metric(0.0, "ms")
    out["serve.coalesced_ratio"] = _metric(0.0, "ratio")
    out["serve.batch_size_mean"] = _metric(0.0, "count")
    for op in ("get", "put"):
        out[f"runtime.cache_{op}_p50_ms"] = _metric(0.0, "ms")
        out[f"runtime.cache_{op}_calls"] = _metric(0, "count")
    for tier in ("hot", "disk", "miss"):
        out[f"runtime.cache_{tier}_ratio"] = _metric(0.0, "ratio")
    return out


def _batch_layers(traced: dict, plain: dict) -> dict:
    out = _layer_metrics(traced["layers"])
    overhead_s = traced["overhead_s"]
    out["runtime.overhead_s"] = _metric(overhead_s, "s")
    out.update(_empty_serve_metrics())
    wall_s = traced["wall_s"]
    named = sum(v for k, v in traced["layers"]["self_s"].items() if k != "experiments")
    out["attributed_ratio"] = _metric((named + overhead_s) / wall_s, "ratio")
    out["trace_overhead_ratio"] = _metric(
        traced["scaled_wall_s"] / plain["scaled_wall_s"] - 1.0, "ratio"
    )
    return out


def _p50_ms(values: list[float]) -> float:
    return _percentile(values, 50) * 1e3 if values else 0.0


def _serve_layers(traced: dict, plain: dict) -> dict:
    layers = traced["layers"]
    samples = layers["samples"]
    handle = layers["handle_s"]
    out = _layer_metrics(layers)
    out["runtime.overhead_s"] = _metric(0.0, "s")
    tiers = [r["tier"] for r in traced["requests"]]
    out.update({
        "runtime.cache_get_p50_ms": _metric(_p50_ms(samples.get("cache_get", [])), "ms"),
        "runtime.cache_get_calls": _metric(len(samples.get("cache_get", [])), "count"),
        "runtime.cache_put_p50_ms": _metric(_p50_ms(samples.get("cache_put", [])), "ms"),
        "runtime.cache_put_calls": _metric(len(samples.get("cache_put", [])), "count"),
        "serve.handle_p50_ms": _metric(_p50_ms(list(handle.values())), "ms"),
        "serve.transport_p50_ms": _metric(_p50_ms([
            r["latency_s"] - handle[r["id"]]
            for r in traced["requests"] if r["id"] in handle
        ]), "ms"),
        "serve.batch_wait_p50_ms": _metric(_p50_ms(samples.get("batch_wait", [])), "ms"),
        "serve.pool_p50_ms": _metric(_p50_ms(samples.get("pool", [])), "ms"),
        "serve.evaluate_p50_ms": _metric(_p50_ms(samples.get("evaluate", [])), "ms"),
        # Client-side latencies come from the untraced window.
        "serve.hit_p50_ms": _metric(
            _percentile(_latencies_ms(plain, ("hot", "disk")), 50), "ms"
        ),
        "serve.advise_p50_ms": _metric(_percentile(_latencies_ms(plain), 50), "ms"),
        "serve.advise_p99_ms": _metric(_percentile(_latencies_ms(plain), 99), "ms"),
        "serve.miss_p50_ms": _metric(_percentile(_latencies_ms(plain, ("miss",)), 50), "ms"),
        "serve.miss_p99_ms": _metric(_percentile(_latencies_ms(plain, ("miss",)), 99), "ms"),
        "serve.coalesced_ratio": _metric(
            traced["coalesced"] / max(1, traced["coalesced"] + traced["dispatched"]), "ratio"
        ),
        "serve.batch_size_mean": _metric(
            traced["dispatched"] / max(1, traced["batches"]), "count"
        ),
    })
    for tier in ("hot", "disk", "miss"):
        out[f"runtime.cache_{tier}_ratio"] = _metric(
            tiers.count(tier) / max(1, len(tiers)), "ratio"
        )
    out["attributed_ratio"] = _metric(0.0, "ratio")
    out["trace_overhead_ratio"] = _metric(_block_wall(traced) / _block_wall(plain) - 1.0, "ratio")
    return out


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("replay", "sweep", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    children = Children(work)
    try:
        if args.workload == "serve":
            doc = run_serve_workload(children, work, args.seed, args.seconds,
                                     bool(args.trace))
        else:
            doc = run_batch_workload(children, args.workload, args.seed,
                                     args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        children.reap()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": doc["failed"] == 0, **doc}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
