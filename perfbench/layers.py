"""Per-layer self time, measured by wrapping each layer's entry points.

The program is not edited: :func:`install_batch` and
:func:`install_serve` replace the public entry point of every
``repro.*`` layer with a timing wrapper, both on the
defining module or class and in every loaded module that imported the
function by name (``sweeps.estimate``, ``ext04_prefetch.kernel_trace_chunks``,
``ext08_energy_pareto.price_config``, ...).

Synchronous layers nest, so each wrapper records *self* time: its own
duration minus the time spent in wrapped layers it called. Trace
generation consumed inside ``Hierarchy.run_batched`` is charged to
``kernels.trace`` and subtracted from ``memory``; the replay inside
``price_config`` is charged to ``memory`` and subtracted from
``power``. The serve layers interleave on an event loop, so they record
plain per-call durations instead.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import sys
import time
import weakref
from typing import Any, Callable, Iterable, Iterator


@dataclasses.dataclass
class Layers:
    """Accumulated measurements of one process."""

    #: layer name -> seconds of self time.
    self_s: collections.Counter = dataclasses.field(
        default_factory=collections.Counter
    )
    #: layer name -> number of calls.
    calls: collections.Counter = dataclasses.field(
        default_factory=collections.Counter
    )
    #: counter name -> amount (references replayed or generated).
    counts: collections.Counter = dataclasses.field(
        default_factory=collections.Counter
    )
    #: experiment id -> inclusive wall seconds of its driver.
    experiments: collections.Counter = dataclasses.field(
        default_factory=collections.Counter
    )
    #: sample name -> per-call durations in seconds (serve, cache).
    samples: dict[str, list[float]] = dataclasses.field(
        default_factory=lambda: collections.defaultdict(list)
    )
    #: request id -> ServeApp.handle duration in seconds.
    handle_s: dict[str, float] = dataclasses.field(default_factory=dict)
    #: child-time accumulators of the open synchronous frames.
    _stack: list[list[float]] = dataclasses.field(default_factory=list)

    def timed(self, name_of: Callable[..., str], fn: Callable) -> Callable:
        """Wrap ``fn`` so each call adds its self time to ``name_of(*args)``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = name_of(*args, **kwargs)
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.self_s[name] += elapsed - children[0]
                self.calls[name] += 1

        return wrapper

    def sampled(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call appends its duration to ``samples[name]``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.samples[name].append(time.perf_counter() - start)

        return wrapper

    def timed_iter(self, name: str, items: Iterable) -> Iterator:
        """Charge the time spent producing each item of ``items`` to ``name``.

        Each item is an ``(addrs, writes)`` chunk; its length is added to
        the ``<name>.refs`` count.
        """
        it = iter(items)
        while True:
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.self_s[name] += elapsed - children[0]
            self.counts[f"{name}.refs"] += len(item[0])
            yield item

    def snapshot(self) -> dict[str, Any]:
        """Plain-JSON copy of every measurement."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "experiments": dict(self.experiments),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "handle_s": dict(self.handle_s),
        }

    def reset(self) -> None:
        for field in (self.self_s, self.calls, self.counts, self.experiments):
            field.clear()
        self.samples.clear()
        self.handle_s.clear()

    def merge(self, snap: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` taken in another process into this one."""
        self.self_s.update(snap["self_s"])
        self.calls.update(snap["calls"])
        self.counts.update(snap["counts"])
        self.experiments.update(snap["experiments"])
        for name, values in snap["samples"].items():
            self.samples[name].extend(values)
        self.handle_s.update(snap["handle_s"])


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``replacement`` (the defining module included)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _const(name: str) -> Callable[..., str]:
    return lambda *args, **kwargs: name


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_batch(layers: Layers) -> None:
    """Wrap the layers a ``run_batch`` of experiments goes through."""
    from repro.engine import exectime
    from repro.experiments import registry
    from repro.kernels import traces
    from repro.kernels.base import Kernel
    from repro.memory import hierarchy
    from repro.power import ledger
    from repro.sparse import collection, syncfree

    registry.all_experiments()  # import every driver before rebinding

    _rebind(exectime.estimate, layers.timed(_const("engine.estimate"), exectime.estimate))
    _rebind(
        syncfree.simulate_schedule,
        layers.timed(_const("sparse.schedule"), syncfree.simulate_schedule),
    )
    _rebind(
        collection.build_collection,
        layers.timed(_const("sparse.collection"), collection.build_collection),
    )
    _rebind(ledger.price_config, layers.timed(_const("power.price"), ledger.price_config))

    for cls in _subclasses(Kernel):
        if "profile" in cls.__dict__:
            cls.profile = layers.timed(_const("kernels.profile"), cls.__dict__["profile"])

    chunks_fn = traces.kernel_trace_chunks
    timed_chunks = layers.timed(_const("kernels.trace"), chunks_fn)

    @functools.wraps(chunks_fn)
    def kernel_trace_chunks(*args: Any, **kwargs: Any) -> Iterator:
        # Generation runs eagerly in the call; slicing runs lazily in the
        # iterator, usually inside Hierarchy.run_batched.
        return layers.timed_iter("kernels.trace", timed_chunks(*args, **kwargs))

    _rebind(chunks_fn, kernel_trace_chunks)

    # Replay is split by the prefetch= argument the hierarchy was built with.
    prefetching: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def tagged(fn: Callable, prefetch_of: Callable[..., bool]) -> Callable:
        @functools.wraps(fn)
        def build(*args: Any, **kwargs: Any) -> Any:
            h = fn(*args, **kwargs)
            prefetching[h] = prefetch_of(*args, **kwargs)
            return h

        return build

    _rebind(
        hierarchy.for_broadwell,
        tagged(hierarchy.for_broadwell, lambda *a, prefetch=None, **k: prefetch is not None),
    )
    _rebind(hierarchy.for_knl, tagged(hierarchy.for_knl, lambda *a, **k: False))

    def replay_name(h: Any, *args: Any, **kwargs: Any) -> str:
        kind = "prefetch" if prefetching.get(h, False) else "plain"
        return f"memory.replay_{kind}"

    def counted(name: str, chunks: Iterable) -> Iterator:
        for chunk in chunks:
            layers.counts[f"{name}.refs"] += len(chunk[0])
            yield chunk

    Hierarchy = hierarchy.Hierarchy
    run_batched = layers.timed(replay_name, Hierarchy.__dict__["run_batched"])
    run_array = layers.timed(replay_name, Hierarchy.__dict__["run_array"])

    @functools.wraps(run_batched)
    def run_batched_counted(h: Any, chunks: Iterable, *args: Any, **kwargs: Any) -> Any:
        return run_batched(h, counted(replay_name(h), chunks), *args, **kwargs)

    @functools.wraps(run_array)
    def run_array_counted(h: Any, addrs: Any, *args: Any, **kwargs: Any) -> Any:
        layers.counts[f"{replay_name(h)}.refs"] += len(addrs)
        return run_array(h, addrs, *args, **kwargs)

    Hierarchy.run_batched = run_batched_counted
    Hierarchy.run_array = run_array_counted
    # The scalar paths count as replay calls too (no reference counts).
    for attr in ("run", "run_lines"):
        setattr(Hierarchy, attr, layers.timed(replay_name, Hierarchy.__dict__[attr]))

    for exp_id, spec in list(registry._REGISTRY.items()):
        registry._REGISTRY[exp_id] = dataclasses.replace(
            spec, runner=_experiment_runner(layers, exp_id, spec.runner)
        )


def _experiment_runner(layers: Layers, exp_id: str, runner: Callable) -> Callable:
    timed = layers.timed(_const("experiments"), runner)

    @functools.wraps(runner)
    def run(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return timed(*args, **kwargs)
        finally:
            layers.experiments[exp_id] += time.perf_counter() - start

    return run


def install_serve(layers: Layers) -> None:
    """Wrap the serve stages, the shared cache, and the pool worker.

    The pool worker runs in a process forked after this call, so it
    inherits the batch-layer wrappers too; its measurements ride home in
    the result envelope and are merged where ``ServePool.run`` returns.
    """
    from repro.runtime.cache import SharedResultCache
    from repro.serve import app, batcher, pool

    install_batch(layers)

    # Called from worker threads (asyncio.to_thread): plain durations only.
    for attr, name in (("get_payload", "cache_get"), ("put_payload", "cache_put")):
        setattr(SharedResultCache, attr, layers.sampled(name, SharedResultCache.__dict__[attr]))

    handle = app.ServeApp.handle

    @functools.wraps(handle)
    async def timed_handle(self: Any, request: Any, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return await handle(self, request, *args, **kwargs)
        finally:
            request_id = request.headers.get("x-request-id")
            if request_id is not None:
                layers.handle_s[request_id] = time.perf_counter() - start

    app.ServeApp.handle = timed_handle

    pool_run = pool.ServePool.run
    pool_s: dict[str, float] = {}

    @functools.wraps(pool_run)
    async def timed_pool_run(self: Any, *args: Any, key: str, **kwargs: Any) -> Any:
        start = time.perf_counter()
        envelope = await pool_run(self, *args, key=key, **kwargs)
        pool_s[key] = time.perf_counter() - start
        layers.samples["pool"].append(pool_s[key])
        layers.samples["evaluate"].append(envelope["duration_s"])
        shipped = envelope.pop("perfbench_layers", None)
        if shipped is not None:
            layers.merge(shipped)
        return envelope

    pool.ServePool.run = timed_pool_run

    submit = batcher.Batcher.submit

    @functools.wraps(submit)
    async def timed_submit(self: Any, key: str, job: Any) -> Any:
        coalesced = key in self._inflight
        start = time.perf_counter()
        result = await submit(self, key, job)
        if not coalesced and key in pool_s:
            layers.samples["batch_wait"].append(
                time.perf_counter() - start - pool_s.pop(key)
            )
        return result

    batcher.Batcher.submit = timed_submit

    worker = pool._pool_worker

    @functools.wraps(worker)
    def shipping_worker(*args: Any, **kwargs: Any) -> dict[str, Any]:
        layers.reset()
        envelope = worker(*args, **kwargs)
        envelope["perfbench_layers"] = layers.snapshot()
        return envelope

    _rebind(worker, shipping_worker)
