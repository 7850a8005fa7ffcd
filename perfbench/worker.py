"""Child processes of the benchmark: one batch pass, or one advisor server.

Each child is a fresh interpreter, so its start-up is what a user of
``repro run`` or ``repro serve`` pays. It prints ``ready`` on stdout the
moment it could take work; the parent times start-up up to that line.

    python3 perfbench/worker.py batch --ids ext4,ext8 [--full] [--trace] [--setup-only]
    python3 perfbench/worker.py serve --cache-dir DIR [--trace] [--seed N --seconds T]

``batch`` then runs ``runtime.run_batch`` serially, without a cache and
without retries, and prints one JSON line: the wall time, each
experiment's status, duration and result digest, the peak resident set,
and with ``--trace`` the per-layer measurements. Wall time and durations
come raw and rescaled by the ``SpeedProbe`` samples taken meanwhile.

``serve`` prints ``ready <port>`` once an in-process ``ServeApp``
(``jobs=1``, otherwise default settings) listens on an ephemeral port,
then waits for one line on stdin. On ``go`` it drives its own server
from two keep-alive connections on the same event loop for
``--seconds`` with the traffic of ``--seed``; on anything else it stops
at once. It then prints one JSON line: its peak resident set, the
batcher counters, every request's status, times and cache tier, the
probe samples of the window, the number of answers that differ from the
offline advisor and, with ``--trace``, the per-layer measurements.

The ready line carries the probe's summary of start-up.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import BinaryIO

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def result_digest(result_dict: dict) -> str:
    """sha256 of an experiment result's canonical JSON."""
    doc = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe_loop() -> int:
    """A fixed pure-Python loop: dict updates and integer arithmetic."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(300):
        table[i & 31] = table.get(i & 31, 0) + i
        acc += (i * 7) ^ (acc >> 3)
    return acc


class SpeedProbe:
    """Samples how fast the host runs this process, while it works.

    The vCPUs of the reference machine switch, each on its own, between
    a fast state and one about twice as slow, every few seconds. Every
    ``PERIOD_S`` a SIGALRM handler times ``_probe_loop`` on the same
    thread as the work. Over an interval, the mean loop time says how
    slow the host was; ``scale`` rescales the interval's wall time to
    the speed at which the loop takes ``REF_S``, after taking out the
    time the probe itself spent.
    """

    PERIOD_S = 0.01
    REF_S = 70e-6

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def summary(self, begin: float, end: float) -> dict:
        return probe_summary(self.samples, begin, end)

    @classmethod
    def scale(cls, wall_s: float, summary: dict) -> float:
        return (wall_s - summary["spent_s"]) * cls.REF_S / summary["mean_s"]


def probe_summary(samples: list, begin: float, end: float) -> dict:
    """The samples taken in ``[begin, end)``: their mean and total time."""
    inside = [d for t, d in samples if begin <= t < end]
    return {
        "mean_s": sum(inside) / len(inside) if inside else SpeedProbe.REF_S,
        "spent_s": sum(inside),
    }


PROBE = SpeedProbe()


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def batch_ready(started: float) -> None:
    """Import the runtime and load the experiment registry, then say so."""
    from repro import runtime  # noqa: F401
    from repro.experiments import registry

    registry.all_experiments()
    _emit({"ready": True, "probe": PROBE.summary(started, time.perf_counter())})


def _scaled_durations(outcomes: list, start: float, whole: dict) -> list[float]:
    """Each experiment's duration rescaled by the probe samples of its own
    stretch of the pass, or by those of the ``whole`` pass if it was too
    short to be sampled. The pass is serial, so an experiment's stretch
    starts where the durations before it end."""
    scaled = []
    for o in outcomes:
        summary = PROBE.summary(start, start + o.duration_s)
        if summary["spent_s"] == 0.0:
            summary = dict(whole, spent_s=0.0)
        scaled.append(SpeedProbe.scale(o.duration_s, summary))
        start += o.duration_s
    return scaled


def run_batch_pass(ids: list[str], *, quick: bool, trace: bool) -> dict:
    from repro import runtime

    layers = None
    if trace:
        import layers as layer_mod

        layers = layer_mod.Layers()
        layer_mod.install_batch(layers)
    start = time.perf_counter()
    summary = runtime.run_batch(ids, quick=quick, jobs=1, cache=None, retries=0)
    end = time.perf_counter()
    PROBE.stop()
    whole = PROBE.summary(start, end)
    scaled = _scaled_durations(summary.outcomes, start, whole)
    return {
        "wall_s": end - start,
        "scaled_wall_s": SpeedProbe.scale(end - start, whole),
        "overhead_s": end - start - sum(o.duration_s for o in summary.outcomes),
        "outcomes": [
            {
                "id": o.experiment_id,
                "status": o.status,
                "duration_s": o.duration_s,
                "scaled_s": scaled_s,
                "digest": result_digest(o.result.as_dict()) if o.result else None,
                "error": o.error,
            }
            for o, scaled_s in zip(summary.outcomes, scaled)
        ],
        "peak_rss_mb": peak_rss_mb(),
        "layers": layers.snapshot() if layers is not None else None,
    }


async def _connection(port: int, bodies: list[bytes], order: list[int],
                      cursor: list[int], deadline: float, records: list,
                      replies: BinaryIO) -> None:
    """One keep-alive client: send the next scheduled request once the
    previous reply is in (a closed loop), until the deadline.

    Reply bodies go to ``replies``, a file, so that the server's peak
    resident set does not grow with the number of requests served.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        while cursor[0] < len(order) and time.perf_counter() < deadline:
            i = cursor[0]
            cursor[0] += 1
            body = bodies[order[i]]
            head = (
                f"POST /v1/advise HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
                f"X-Request-Id: {i}\r\n\r\n"
            ).encode("latin-1")
            start = time.perf_counter()
            writer.write(head + body)
            await writer.drain()
            raw = await reader.readuntil(b"\r\n\r\n")
            lines = raw.decode("latin-1").split("\r\n")
            length = next(
                int(line.split(":", 1)[1]) for line in lines
                if line.lower().startswith("content-length:")
            )
            data = await reader.readexactly(length)
            end = time.perf_counter()
            records.append(
                (i, int(lines[0].split(" ")[1]), start, end, replies.tell(), length)
            )
            replies.write(data)
    finally:
        writer.close()
        await writer.wait_closed()


def check_answers(bodies: list[bytes], requests: list[dict]) -> int:
    """Failed requests: not HTTP 200, or a body that, apart from its
    ``meta``, is not byte-identical to the offline advisor's answer."""
    from repro.serve import advisor

    offline: dict[int, dict] = {}
    failed = 0
    for r in requests:
        if r["status"] != 200:
            failed += 1
            continue
        if r["body"] not in offline:
            offline[r["body"]] = advisor.advise(json.loads(bodies[r["body"]]))
        served = json.loads(r["data"])
        expected = dict(offline[r["body"]], meta=served["meta"])
        wire = json.dumps(expected, sort_keys=True, separators=(",", ":"))
        if wire.encode("utf-8") != r["data"]:
            failed += 1
    return failed


async def _serve(cache_dir: Path, trace: bool, seed: int, seconds: float,
                 started: float) -> dict:
    from repro.serve.app import ServeApp, ServeConfig

    layers = None
    if trace:
        import layers as layer_mod

        layers = layer_mod.Layers()
        layer_mod.install_serve(layers)
    app = ServeApp(ServeConfig(port=0, jobs=1, cache_dir=cache_dir))
    server = await app.serve()
    port = server.sockets[0].getsockname()[1]
    # Start-up ends here; the probe samples the traffic window again.
    PROBE.stop()
    ready_at = time.perf_counter()
    _emit({"ready": True, "port": port, "probe": PROBE.summary(started, ready_at)})
    # Wait for the command without a reader thread: the pool forks its
    # worker later, and a thread blocked in readline would hold the stdin
    # lock the forked child needs to close stdin.
    loop = asyncio.get_running_loop()
    readable = asyncio.Event()
    loop.add_reader(sys.stdin.fileno(), readable.set)
    await readable.wait()
    loop.remove_reader(sys.stdin.fileno())
    records: list[tuple] = []
    go = sys.stdin.readline().strip() == "go"
    with tempfile.TemporaryFile() as replies:
        try:
            if go:
                import queries

                bodies, order = queries.traffic(seed, int(4000 * seconds))
                cursor = [0]
                deadline = time.perf_counter() + seconds
                PROBE.start()
                try:
                    await asyncio.gather(*(
                        _connection(port, bodies, order, cursor, deadline, records, replies)
                        for _ in range(2)
                    ))
                finally:
                    PROBE.stop()
        finally:
            server.close()
            await server.wait_closed()
            app.shutdown()
        doc = {
            "peak_rss_mb": peak_rss_mb(),
            "coalesced": app.batcher.coalesced,
            "dispatched": app.batcher.dispatched,
            "batches": app.batcher.batches,
            "layers": layers.snapshot() if layers is not None else None,
            "probe": [s for s in PROBE.samples if s[0] >= ready_at],
            "requests": [],
        }
        requests = []
        for i, status, start, end, offset, length in records:
            replies.seek(offset)
            data = replies.read(length)
            requests.append({"status": status, "body": order[i], "data": data})
            doc["requests"].append({
                "id": str(i), "status": status, "start": start, "end": end,
                "latency_s": end - start,
                "tier": json.loads(data)["meta"]["cache"] if status == 200 else None,
            })
        # Checked last: the offline answers run through the same wrappers.
        doc["failed"] = check_answers(bodies, requests) if go else 0
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    batch = sub.add_parser("batch")
    batch.add_argument("--ids", required=True)
    batch.add_argument("--full", action="store_true")
    batch.add_argument("--trace", action="store_true")
    batch.add_argument("--setup-only", action="store_true")
    serve = sub.add_parser("serve")
    serve.add_argument("--cache-dir", type=Path, required=True)
    serve.add_argument("--trace", action="store_true")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    PROBE.start()
    if args.mode == "batch":
        batch_ready(started)
        if args.setup_only:
            PROBE.stop()
            return 0
        _emit(
            run_batch_pass(
                args.ids.split(","), quick=not args.full, trace=args.trace
            )
        )
        return 0
    _emit(asyncio.run(
        _serve(args.cache_dir, args.trace, args.seed, args.seconds, started)
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
