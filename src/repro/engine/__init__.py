"""Analytic performance engine: execution time, roofline, stepping model."""

from repro.engine import roofline, stepping
from repro.engine.calibration import DEFAULT_KNOBS, EFFICIENCY, ModelKnobs, efficiency
from repro.engine.exectime import RunResult, estimate

__all__ = [
    "DEFAULT_KNOBS",
    "EFFICIENCY",
    "ModelKnobs",
    "RunResult",
    "efficiency",
    "estimate",
    "roofline",
    "stepping",
]
