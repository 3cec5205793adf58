"""Kernel backend registry for the interval algebra.

Two backends implement the interval constructs of Definition 2.4:

``pure``
    The original pure-Python sweeps over ``Interval`` objects. Always
    available; the default.

``columnar``
    Batch numpy kernels over the int64 ``(starts, ends)`` columns cached on
    each :class:`~repro.intervals.interval.IntervalList`
    (:mod:`repro.intervals.columnar`). Requires numpy; produces results
    byte-identical to ``pure``.

Selection, in increasing precedence:

1. the ``REPRO_KERNEL_BACKEND`` environment variable (read at import time;
   unknown names or ``columnar`` without numpy fall back to ``pure`` with a
   warning),
2. :func:`set_backend` / the :func:`use_backend` context manager (explicit
   selection *raises* on unknown or unavailable backends),
3. per-call ``backend=`` arguments on ``RTECEngine.recognise`` and
   ``RTECSession`` which wrap evaluation in :func:`use_backend`.

The active backend is a process-wide global (shared with worker threads);
process-pool shard workers resolve ``REPRO_KERNEL_BACKEND`` themselves at
import, so prefer the environment variable for process-sharded runs.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

__all__ = [
    "PURE",
    "COLUMNAR",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "columnar_active",
]

PURE = "pure"
COLUMNAR = "columnar"
ENV_VAR = "REPRO_KERNEL_BACKEND"

_numpy_available: Optional[bool] = None


def _has_numpy() -> bool:
    global _numpy_available
    if _numpy_available is None:
        try:
            import numpy  # noqa: F401

            _numpy_available = True
        except ImportError:
            _numpy_available = False
    return _numpy_available


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this process (``pure`` is always first)."""
    if _has_numpy():
        return (PURE, COLUMNAR)
    return (PURE,)


def set_backend(name: str) -> None:
    """Select the process-wide kernel backend; raises on bad names."""
    global _active, _columnar_active
    if name not in (PURE, COLUMNAR):
        raise ValueError(
            "unknown kernel backend %r (expected one of: pure, columnar)" % (name,)
        )
    if name == COLUMNAR and not _has_numpy():
        raise RuntimeError("columnar kernel backend requires numpy, which is not importable")
    _active = name
    _columnar_active = name == COLUMNAR


def get_backend() -> str:
    """Name of the active kernel backend."""
    return _active


def columnar_active() -> bool:
    """Fast check used by kernel dispatch sites."""
    return _columnar_active


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Temporarily switch the active backend; ``None`` is a no-op."""
    if name is None:
        yield
        return
    previous = _active
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def _from_environment() -> str:
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if not value or value == PURE:
        return PURE
    if value == COLUMNAR:
        if _has_numpy():
            return COLUMNAR
        warnings.warn(
            "%s=columnar requested but numpy is not importable; "
            "falling back to the pure backend" % ENV_VAR,
            RuntimeWarning,
            stacklevel=2,
        )
        return PURE
    warnings.warn(
        "unknown %s=%r; falling back to the pure backend" % (ENV_VAR, value),
        RuntimeWarning,
        stacklevel=2,
    )
    return PURE


_active: str = _from_environment()
_columnar_active: bool = _active == COLUMNAR
