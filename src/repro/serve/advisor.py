"""The memory-advisor query surface.

This module is the *entire* decision logic of the serve subsystem: given
a kernel, a problem size, and a set of candidate ``platform/mode``
configurations, rank the candidates by the analytic engine's predicted
execution time — or, with ``objective: "energy"``, by modelled
energy-to-solution (power sample x predicted seconds).

The HTTP layer, the batcher, and the worker pool are pure transport
around :func:`evaluate` — a served answer must be
byte-identical to calling :func:`evaluate` offline on the same
normalized query (the differential tests enforce this), so the serve
layer can cache and coalesce aggressively without ever changing numbers.

Queries normalize to a canonical dict (sorted params, deduplicated
candidates in registry order, defaults filled in), and the canonical
form plus the source digest of this module's import closure — which
reaches the engine, the kernels, and the platform tables — yields the
content-addressed cache key: editing any model code invalidates every
cached answer, exactly like experiment task keys.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Mapping

from repro import telemetry
from repro.engine.exectime import RunResult, estimate
from repro.kernels import (
    CholeskyKernel,
    FftKernel,
    GemmKernel,
    Kernel,
    SpmvKernel,
    SptransKernel,
    SptrsvKernel,
    StencilKernel,
    StreamKernel,
)
from repro.platforms import MODES, check_mode, resolve
from repro.power import PowerSample, measure
from repro.sparse import descriptors, generators
from repro.telemetry import names as tm

#: Bump when the advise payload layout changes; cached answers from
#: older schemas read as misses. v2: per-candidate power_w/energy_j and
#: the ``objective`` knob (rank by time or energy-to-solution).
ADVISE_SCHEMA_VERSION = 2

#: objective name -> the candidate-row metric it minimizes.
OBJECTIVES: dict[str, str] = {"time": "seconds", "energy": "energy_j"}

#: Guard rails on problem sizes: the advisor is analytic, but absurd
#: inputs should fail fast with a clear message instead of overflowing.
_MAX_ELEMS = 2**40


class QueryError(ValueError):
    """A malformed or out-of-range advise query (HTTP 400)."""


# -- candidate configurations -------------------------------------------------


def default_candidates() -> list[dict[str, str]]:
    """Every platform/mode combination of :data:`repro.platforms.MODES`,
    in registry order."""
    return [
        {"platform": platform, "mode": mode}
        for platform, modes in MODES.items()
        for mode in modes
    ]


# -- kernel construction ------------------------------------------------------

_DENSE_DEFAULT_TILE = 128
_SPARSE_FAMILIES = generators.FAMILIES


def _int_param(
    params: Mapping[str, Any], name: str, *, default: int | None = None,
    lo: int = 1, hi: int = _MAX_ELEMS,
) -> int:
    value = params.get(name, default)
    if value is None:
        raise QueryError(f"missing required param {name!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(f"param {name!r} must be a number, got {value!r}")
    # JSON's Infinity and NaN parse as floats (neither is_integer), and
    # an integer may have hundreds of digits: never convert it to float.
    if isinstance(value, float):
        if not value.is_integer():
            raise QueryError(
                f"param {name!r} must be an integer, got {value!r}"
            )
        value = int(value)
    if not lo <= value <= hi:
        raise QueryError(
            f"param {name!r} out of range [{lo}, {hi}]: {value}"
        )
    return value


#: A builder maps raw request params to (kernel instance, canonical
#: fully-defaulted params). Canonical params rebuild the identical
#: kernel, so normalize is idempotent and the cache key is stable
#: however the caller spelled the defaults.
_Built = tuple[Kernel, dict[str, Any]]


def _sparse_descriptor(
    kernel: str, params: Mapping[str, Any]
) -> tuple[descriptors.MatrixDescriptor, dict[str, Any]]:
    n_rows = _int_param(params, "n_rows", lo=2)
    nnz = _int_param(params, "nnz", default=16 * n_rows)
    family = params.get("family", "random")
    if family not in _SPARSE_FAMILIES:
        raise QueryError(
            f"unknown matrix family {family!r}; "
            f"choose from {', '.join(_SPARSE_FAMILIES)}"
        )
    try:
        desc = descriptors.from_params(
            f"advise-{kernel}", family, n_rows, nnz, seed=0
        )
    except ValueError as exc:
        raise QueryError(str(exc)) from exc
    return desc, {"n_rows": n_rows, "nnz": nnz, "family": family}


def _build_stream(params: Mapping[str, Any]) -> _Built:
    n = _int_param(params, "n")
    return StreamKernel(n=n), {"n": n}


def _build_dense(cls: type, params: Mapping[str, Any]) -> _Built:
    order = _int_param(params, "order", lo=16)
    tile = _int_param(
        params, "tile", default=min(order, _DENSE_DEFAULT_TILE), hi=order
    )
    return cls(order=order, tile=tile), {"order": order, "tile": tile}


def _build_gemm(params: Mapping[str, Any]) -> _Built:
    return _build_dense(GemmKernel, params)


def _build_cholesky(params: Mapping[str, Any]) -> _Built:
    return _build_dense(CholeskyKernel, params)


def _build_fft(params: Mapping[str, Any]) -> _Built:
    size = _int_param(params, "size", lo=2, hi=2**13)
    return FftKernel(size=size), {"size": size}


def _build_stencil(params: Mapping[str, Any]) -> _Built:
    nx = _int_param(params, "nx", lo=17, hi=2**13)
    ny = _int_param(params, "ny", default=nx, lo=17, hi=2**13)
    nz = _int_param(params, "nz", default=nx, lo=17, hi=2**13)
    steps = _int_param(params, "steps", default=1, hi=64)
    return (
        StencilKernel(nx=nx, ny=ny, nz=nz, steps=steps),
        {"nx": nx, "ny": ny, "nz": nz, "steps": steps},
    )


def _build_spmv(params: Mapping[str, Any]) -> _Built:
    desc, canon = _sparse_descriptor("spmv", params)
    return SpmvKernel(descriptor=desc), canon


def _build_sptrans(params: Mapping[str, Any]) -> _Built:
    desc, canon = _sparse_descriptor("sptrans", params)
    return SptransKernel(descriptor=desc), canon


def _build_sptrsv(params: Mapping[str, Any]) -> _Built:
    desc, canon = _sparse_descriptor("sptrsv", params)
    return SptrsvKernel(descriptor=desc), canon


#: kernel name -> (builder, accepted param names).
KERNEL_BUILDERS: dict[
    str, tuple[Callable[[Mapping[str, Any]], _Built], tuple[str, ...]]
] = {
    "stream": (_build_stream, ("n",)),
    "gemm": (_build_gemm, ("order", "tile")),
    "cholesky": (_build_cholesky, ("order", "tile")),
    "fft": (_build_fft, ("size",)),
    "stencil": (_build_stencil, ("nx", "ny", "nz", "steps")),
    "spmv": (_build_spmv, ("n_rows", "nnz", "family")),
    "sptrans": (_build_sptrans, ("n_rows", "nnz", "family")),
    "sptrsv": (_build_sptrsv, ("n_rows", "nnz", "family")),
}


def build_kernel(kernel: str, params: Mapping[str, Any]) -> Kernel:
    """Instantiate the kernel a normalized query names."""
    builder, _ = KERNEL_BUILDERS[kernel]
    return builder(params)[0]


# -- normalization ------------------------------------------------------------


def _normalize_candidates(raw: Any) -> list[dict[str, str]]:
    if raw is None:
        return default_candidates()
    if not isinstance(raw, (list, tuple)) or not raw:
        raise QueryError("candidates must be a non-empty list")
    wanted: list[tuple[str, str]] = []
    for item in raw:
        if isinstance(item, str):
            platform, _, mode = item.partition("/")
        elif isinstance(item, Mapping):
            platform = item.get("platform", "")
            mode = item.get("mode", "")
        else:
            raise QueryError(f"bad candidate {item!r}")
        platform = str(platform)
        mode = str(mode) if mode else ""
        try:
            modes = check_mode(platform, mode or None)
        except ValueError as exc:
            raise QueryError(str(exc)) from None
        if mode:
            wanted.append((platform, mode))
        else:  # bare platform name expands to all of its modes
            wanted.extend((platform, m) for m in modes)
    # Deduplicate and order canonically (registry order), so logically
    # identical queries share one cache key.
    chosen = set(wanted)
    return [
        {"platform": platform, "mode": mode}
        for platform, modes in MODES.items()
        for mode in modes
        if (platform, mode) in chosen
    ]


def normalize(payload: Any) -> dict[str, Any]:
    """Validate a raw advise request into its canonical query dict.

    Raises :class:`QueryError` on anything malformed. The canonical form
    is what :func:`evaluate` consumes and what the cache key hashes, so
    two requests that mean the same thing normalize identically.
    """
    if not isinstance(payload, Mapping):
        raise QueryError("request body must be a JSON object")
    unknown = set(payload) - {"kernel", "params", "candidates", "objective"}
    if unknown:
        raise QueryError(f"unknown fields: {', '.join(sorted(unknown))}")
    objective = payload.get("objective", "time")
    if objective not in OBJECTIVES:
        raise QueryError(
            f"unknown objective {objective!r}; "
            f"choose from {', '.join(OBJECTIVES)}"
        )
    kernel = payload.get("kernel")
    if kernel not in KERNEL_BUILDERS:
        raise QueryError(
            f"unknown kernel {kernel!r}; "
            f"choose from {', '.join(KERNEL_BUILDERS)}"
        )
    raw_params = payload.get("params") or {}
    if not isinstance(raw_params, Mapping):
        raise QueryError("params must be a JSON object")
    _, accepted = KERNEL_BUILDERS[kernel]
    bad = set(raw_params) - set(accepted)
    if bad:
        raise QueryError(
            f"unknown params for {kernel}: {', '.join(sorted(bad))} "
            f"(accepted: {', '.join(accepted)})"
        )
    builder, _ = KERNEL_BUILDERS[kernel]
    _, params = builder(raw_params)  # validates ranges, fills defaults
    return {
        "kernel": kernel,
        "params": {k: params[k] for k in sorted(params)},
        "candidates": _normalize_candidates(payload.get("candidates")),
        "objective": objective,
    }


def query_key(canonical: Mapping[str, Any]) -> str:
    """Content-addressed cache key for one canonical query.

    Covers the query itself, the payload schema, and the source digest
    of this module's in-package import closure (engine + kernels +
    platforms), so cached answers can never outlive the model code that
    produced them.
    """
    from repro.runtime.fingerprint import source_digest

    doc = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    digest = source_digest("repro.serve.advisor")
    raw = f"advise|{ADVISE_SCHEMA_VERSION}|{digest}|{doc}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


# -- evaluation ---------------------------------------------------------------


def _candidate_row(
    label: dict[str, str], result: RunResult, sample: PowerSample
) -> dict[str, Any]:
    return {
        "platform": label["platform"],
        "mode": label["mode"],
        "machine": result.machine,
        "seconds": result.seconds,
        "gflops": result.gflops,
        "bound": result.bound,
        "opm_bytes": result.opm_bytes,
        "dram_bytes": result.dram_bytes,
        "power_w": sample.total_w,
        "energy_j": sample.energy_j,
    }


def evaluate(canonical: Mapping[str, Any]) -> dict[str, Any]:
    """Answer one canonical query: ranked candidates with speedups.

    This is the offline reference path — the serve layer returns exactly
    this dict (plus a transport-only ``meta`` sibling). Deterministic by
    construction: the engine is a pure function of (profile, machine,
    knobs) and the noise knob is seeded per configuration.
    """
    kernel = build_kernel(canonical["kernel"], canonical["params"])
    candidates = canonical["candidates"]
    objective = canonical.get("objective", "time")
    metric = OBJECTIVES[objective]
    with telemetry.span(
        tm.SPAN_SERVE_ADVISE,
        kernel=canonical["kernel"],
        n_candidates=len(candidates),
    ):
        profile = kernel.profile()
        rows = []
        for cand in candidates:
            machine, kwargs = resolve(cand["platform"], cand["mode"])
            result = estimate(profile, machine, **kwargs)
            rows.append(_candidate_row(cand, result, measure(result, machine)))
    telemetry.counter(tm.METRIC_SERVE_ENGINE_EXECUTIONS).inc()
    ranked = sorted(rows, key=lambda r: (r[metric], r["platform"], r["mode"]))
    worst = ranked[-1][metric]
    best = ranked[0][metric]
    for rank, row in enumerate(ranked, start=1):
        row["rank"] = rank
        row["speedup_vs_worst"] = (
            worst / row[metric] if row[metric] > 0 else 0.0
        )
        row["slowdown_vs_best"] = (
            row[metric] / best if best > 0 else 0.0
        )
    return {
        "schema": ADVISE_SCHEMA_VERSION,
        "kernel": canonical["kernel"],
        "params": dict(canonical["params"]),
        "footprint_bytes": int(profile.footprint_bytes),
        "objective": objective,
        "winner": {
            "platform": ranked[0]["platform"],
            "mode": ranked[0]["mode"],
            "seconds": ranked[0]["seconds"],
            "energy_j": ranked[0]["energy_j"],
            "speedup_vs_worst": ranked[0]["speedup_vs_worst"],
        },
        "ranked": ranked,
    }


def advise(payload: Any) -> dict[str, Any]:
    """Offline one-shot: normalize + evaluate (the CLI/differential path)."""
    return evaluate(normalize(payload))
