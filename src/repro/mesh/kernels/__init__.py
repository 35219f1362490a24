"""Compiled hot-loop kernel backends behind one dispatch seam.

The stepping core and the curve rank tables run their hot loops
through a :class:`KernelBackend` resolved here:

* ``"numpy"`` — the always-available vectorized reference path (the
  code that already lives in ``engine_core`` / ``topology``; ``ops`` is
  ``None`` and the callers keep their NumPy loops).
* ``"numba"`` — the kernels of :mod:`repro.mesh.kernels.loops` wrapped
  with ``@numba.njit(cache=True)``.  numba is imported lazily, only
  when this backend is actually selected, so its absence costs nothing.
* ``"auto"`` (the default) — ``numba`` when importable, else silently
  ``numpy``.
* ``"python"`` — the same kernel loops run as plain Python.  Slow, but
  dependency-free: it executes *exactly* the algorithm numba compiles,
  which is what lets the bit-identity and golden-parity suites certify
  the compiled path on machines without numba.  Intended for tests;
  not advertised in the CLI.

Selection: an explicit argument wins, else ``$REPRO_KERNELS``, else
``auto``.  Requesting ``numba`` without numba installed raises the
typed :class:`KernelBackendError` with the install remedy; ``auto``
never raises.  The resolved name is threaded through
``SynchronousEngine`` / ``AccessProtocol`` and surfaces in
``SimulationReport`` and the ``repro trace``/``repro kernels`` CLI.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from types import SimpleNamespace

from repro.mesh.kernels import loops

__all__ = [
    "BACKEND_CHOICES",
    "KernelBackend",
    "KernelBackendError",
    "available_backends",
    "numba_version",
    "resolve_backend",
]

#: Values accepted by ``REPRO_KERNELS`` / ``--kernels`` (the public
#: surface; ``"python"`` is additionally accepted for tests).
BACKEND_CHOICES = ("auto", "numpy", "numba")

_VALID = BACKEND_CHOICES + ("python",)


class KernelBackendError(RuntimeError):
    """A kernel backend was requested but cannot be provided."""


@dataclass(frozen=True)
class KernelBackend:
    """One resolved backend: its name and its kernel namespace.

    ``ops`` is ``None`` for the NumPy reference path (callers keep
    their vectorized loops); otherwise an object with the functions of
    :mod:`repro.mesh.kernels.loops` (compiled or plain).
    """

    name: str
    ops: object | None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelBackend({self.name!r})"


def numba_version() -> str | None:
    """The installed numba version, or ``None`` when absent."""
    try:
        import numba
    except ImportError:
        return None
    return numba.__version__


def _numba_importable() -> bool:
    try:
        return importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic loaders
        return False


_NUMPY = KernelBackend("numpy", None)
_PYTHON = KernelBackend("python", loops)
_numba_ops_cache: SimpleNamespace | None = None


def _numba_ops() -> SimpleNamespace:
    """The ``@njit(cache=True)``-wrapped kernels, compiled lazily once.

    ``cache=True`` persists the compiled machine code next to
    ``loops.py``, so warm processes (pool workers, repeated CLI runs)
    skip recompilation.
    """
    global _numba_ops_cache
    if _numba_ops_cache is None:
        import numba

        _numba_ops_cache = SimpleNamespace(
            **{
                name: numba.njit(cache=True)(getattr(loops, name))
                for name in loops.KERNELS
            }
        )
    return _numba_ops_cache


def resolve_backend(request: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend request to a concrete :class:`KernelBackend`.

    Parameters
    ----------
    request : str, KernelBackend, or None
        ``None`` reads ``$REPRO_KERNELS`` (default ``"auto"``).  An
        already-resolved :class:`KernelBackend` passes through
        unchanged, so one resolution can be shared by an engine and its
        cores.

    Raises
    ------
    KernelBackendError
        For an unknown name, or for an explicit ``"numba"`` request
        when numba is not installed (``"auto"`` falls back silently).
    """
    if isinstance(request, KernelBackend):
        return request
    name = request or os.environ.get("REPRO_KERNELS", "auto") or "auto"
    if name not in _VALID:
        raise KernelBackendError(
            f"unknown kernel backend {name!r}: expected one of "
            f"{', '.join(BACKEND_CHOICES)} (REPRO_KERNELS or --kernels)"
        )
    if name == "auto":
        name = "numba" if _numba_importable() else "numpy"
    if name == "numpy":
        return _NUMPY
    if name == "python":
        return _PYTHON
    try:
        import numba  # noqa: F401 - availability probe
    except ImportError as exc:
        raise KernelBackendError(
            "kernel backend 'numba' requested (REPRO_KERNELS or --kernels) "
            "but numba is not installed; install it with "
            "`pip install repro[numba]` (or `pip install numba`), or use "
            "'auto' to fall back to the NumPy core"
        ) from exc
    return KernelBackend("numba", _numba_ops())


def available_backends() -> list[dict]:
    """Status rows for every backend (the ``repro kernels`` listing)."""
    nv = numba_version()
    return [
        {
            "name": "numpy",
            "available": True,
            "detail": "vectorized reference path (always available)",
        },
        {
            "name": "numba",
            "available": nv is not None,
            "detail": (
                f"njit(cache=True) kernels, numba {nv}"
                if nv is not None
                else "absent — pip install repro[numba]"
            ),
        },
        {
            "name": "python",
            "available": True,
            "detail": "kernel loops as plain Python (bit-identity reference)",
        },
    ]
