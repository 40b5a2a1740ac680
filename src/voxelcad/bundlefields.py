"""Typed reads of model-bundle fields parsed from JSON.

A wrong JSON type fails as a ValueError that names the field by its dotted
path in the bundle, so `voxelcad predict` reports it as a domain error.
"""

from __future__ import annotations

import numpy as np


def object_field(value, field: str) -> dict:
    """A field that must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"bundle field '{field}' must be a JSON object, "
                         f"got {type(value).__name__}")
    return value


def array_field(value, field: str, ndims: tuple[int, ...]) -> np.ndarray:
    """A field read as a finite float64 array with one of the given ranks."""
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim not in ndims or not np.isfinite(arr).all():
        raise ValueError(f"bundle field '{field}' must be a numeric array of rank "
                         f"{' or '.join(map(str, ndims))}, all finite")
    return arr


def number_field(value, field: str) -> float:
    """A field that must be a finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not np.isfinite(value):
        raise ValueError(f"bundle field '{field}' must be a finite number, got {value!r}")
    return float(value)
