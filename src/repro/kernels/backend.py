"""Backend registry and dispatch.

One small, dependency-free mapping answers "which algorithm class should
actually run?" for every entry point (CLI ``--backend``, the engine's
``backend=`` parameter, ``make_algorithm``): scalar algorithm names pair
with their vectorised variants, and :func:`resolve_algorithm` picks a
side based on the requested backend and — for ``auto`` — whether the
dataset qualifies for array kernels at all.

The registry is name-based on purpose: backends never change *answers*
(the differential suites enforce bit-identical results), so everything
downstream — result caches, layouts, persisted files — keys on the
scalar family name and stays valid whichever backend computed it.
"""

from __future__ import annotations

from repro.errors import AlgorithmError

__all__ = [
    "BACKENDS",
    "array_tier",
    "available_backends",
    "normalize_backend",
    "register_variant",
    "resolve_algorithm",
    "scalar_variant",
    "vector_variant",
]

#: The backend names every ``--backend`` / ``backend=`` site accepts.
BACKENDS = ("python", "numpy", "auto")

#: scalar algorithm name -> numpy-variant algorithm name.
_VECTOR_OF: dict[str, str] = {}
#: numpy-variant algorithm name -> scalar algorithm name.
_SCALAR_OF: dict[str, str] = {}
#: vector names ``auto`` is allowed to pick unconditionally. Variants
#: that win only on particular workload shapes register a *predicate*
#: instead (see ``_AUTO_WHEN``): VectorBRS, for example, pays per-page
#: batch overheads that only amortise on dense low-cardinality schemas,
#: so ``auto`` upgrades BRS only there (BENCH_core.json records both
#: the demotion measurement and the shape on which it now wins).
_AUTO_OK: set[str] = set()
#: vector name -> predicate(dataset) gating ``auto`` dispatch by
#: workload shape. A predicate variant with no dataset in hand stays
#: scalar (conservative: shape unknown).
_AUTO_WHEN: dict[str, object] = {}


def register_variant(scalar: str, vector: str, *, auto=True) -> None:
    """Declare ``vector`` as the numpy-backend variant of ``scalar``.

    Called at import time by :mod:`repro.core.registry` for each pair;
    idempotent so re-imports are harmless. ``auto`` may be:

    - ``True``  — ``auto`` dispatch may always pick the variant;
    - ``False`` — reachable via explicit ``backend="numpy"`` only;
    - a callable ``predicate(dataset) -> bool`` — ``auto`` picks the
      variant exactly when the predicate accepts the dataset's shape.
    """
    _VECTOR_OF[scalar] = vector
    _SCALAR_OF[vector] = scalar
    _AUTO_OK.discard(vector)
    _AUTO_WHEN.pop(vector, None)
    if callable(auto):
        _AUTO_WHEN[vector] = auto
    elif auto:
        _AUTO_OK.add(vector)


def vector_variant(name: str) -> str | None:
    """The numpy-variant name for ``name`` (``None`` if it has none).
    A name that already *is* a numpy variant maps to itself."""
    if name in _SCALAR_OF:
        return name
    return _VECTOR_OF.get(name)


def scalar_variant(name: str) -> str:
    """The scalar-family name for ``name`` (itself when already scalar)."""
    return _SCALAR_OF.get(name, name)


def normalize_backend(backend: str | None) -> str | None:
    """Validate a backend name (``None`` means "leave the choice alone")."""
    if backend is None:
        return None
    if backend not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise AlgorithmError(f"unknown backend {backend!r}; known: {known}")
    return backend


def available_backends(name: str) -> tuple[str, ...]:
    """The backends algorithm ``name`` can honour."""
    if vector_variant(name) is not None:
        return BACKENDS
    return ("python", "auto")


def resolve_algorithm(name: str, backend: str | None, dataset=None) -> str:
    """Map an algorithm name + backend request to the class name to run.

    - ``None``     — no preference: ``name`` unchanged (legacy behaviour).
    - ``python``   — the scalar family member (vector names are mapped
      back to their scalar counterparts).
    - ``numpy``    — the vector variant; an explicit request for an
      algorithm with no vectorised implementation is an error.
    - ``auto``     — the vector variant when one exists,
      ``dataset`` (when given) is fully categorical, and the variant is
      either unconditionally auto-eligible or its shape predicate
      accepts the dataset; else ``name``.
    """
    backend = normalize_backend(backend)
    if backend is None:
        return name
    if backend == "python":
        return scalar_variant(name)
    vector = vector_variant(name)
    if backend == "numpy":
        if vector is None:
            raise AlgorithmError(
                f"algorithm {name!r} has no numpy backend; "
                f"available backends: {', '.join(available_backends(name))}"
            )
        return vector
    # auto: upgrade when it is guaranteed safe AND a known win, fall
    # back silently otherwise (explicit backend="numpy" still honours
    # demoted variants).
    if vector is None:
        return scalar_variant(name)
    if dataset is not None and not dataset.space.is_fully_categorical():
        return scalar_variant(name)
    if vector in _AUTO_OK:
        return vector
    predicate = _AUTO_WHEN.get(vector)
    if predicate is not None and dataset is not None and predicate(dataset):
        return vector
    return scalar_variant(name)


def array_tier(backend: str | None, dataset) -> str:
    """The concrete kernel tier a shared scan runs ``backend`` on:
    ``numpy`` when requested explicitly, or for ``auto`` on a fully
    categorical ``dataset``; ``python`` otherwise. (An explicit numpy
    request on an unfit dataset is rejected later, by the kernels.)"""
    if backend == "numpy":
        return "numpy"
    if backend == "auto" and dataset.space.is_fully_categorical():
        return "numpy"
    return "python"
