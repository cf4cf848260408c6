"""The bounds on a run's size, in-memory result, work and phases.

A library call holds its whole result in memory: every snapshot of a
propagation, the record array of an ensemble, the points of a section.  Each
is sized and checked against ``MAX_RESULT_BYTES`` before it is allocated.  A
``run`` of a propagation streams each snapshot out to its CSV and keeps only
the last, but its size is checked against the same cap.  A run's work, in
element-steps (basis states times periods, trajectories times map steps, with
each period or step counted as at least ``_MIN_ELEMENTS``), is checked
against ``MAX_WORK`` before the first step.  The bounds are fixed;
the checks take plain numbers, so the config validator runs them too.
"""

import math
import operator

MAX_RESULT_BYTES = 2**30
# An element-step takes 14-115 ns on one core of a 2-vCPU Xeon (a site of a
# 4096-site chain period, a trajectory of a 4096-trajectory step of the
# standard or the random map), so 2**40 of them take 4-35 hours.  The largest
# benchmark workload is 5e7; 2**63 periods with a snapshot every 2**63
# periods fit the result cap, and are refused here instead of running for ever.
MAX_WORK = 2**40
# A period or step also has a fixed cost: about 26 us for a chain or rotor
# period (its FFT calls) and 4-8 us for a map step, whatever the size.  Each
# counts as at least this many element-steps, so that 2**30 periods of a
# 2-site ring (8 hours) are the most the cap admits, not 2**39 (168 days).
_MIN_ELEMENTS = 2**10
# Largest split-step basis (chain sites or rotor states) and map ensemble.
MAX_TRANSFORM_SITES = 2**20
MAX_ENSEMBLE = 10**6
# Largest phase, in rad, that a propagation accepts.  Doubles near 2**40 are
# spaced 2**-12 rad apart, so such a phase still resolves the dynamics; near
# 2**52 the spacing is 1 rad and the phase is noise, and beyond that the
# phases overflow.  The largest bundled phase is 2**19 rad (localization,
# qkr_localization).
_MAX_PHASE = 2.0**40
# Largest |total - 1| of a probability distribution or of a state's norm**2.
PROBABILITY_TOL = 1e-6


class LimitError(ValueError):
    """A run over a cap on its size, work or phases; a broken rule is a plain ``ValueError``."""


def to_float(v) -> float:
    """float(v), reading an integer beyond the float range as inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def to_array(values, name: str, dtype=float, copy=None):
    """``numpy.array(values, dtype, copy=copy)``; an integer beyond the float range in
    ``values`` is a ``ValueError`` "<name> must be finite", not an ``OverflowError``.
    Text (``str`` or ``bytes``), which numpy would parse, a bool, which it would read as
    0 or 1, and for a real ``dtype`` a complex number, whose imaginary part it would
    drop, are a ``TypeError``, alone, as an array or inside an object array, list or
    tuple, and so is any other object numpy cannot read as a number."""
    import numpy as np  # here, so that the config validator loads no numpy

    # a list or tuple is read as objects first, since numpy would cast a bool or
    # a complex number in it to the others' type
    items = np.asarray(values, dtype=object) if isinstance(values, (list, tuple)) else ()
    values = np.asarray(values)
    if values.dtype == object:
        items = values
    kinds = {values.dtype.kind}.union(np.asarray(v).dtype.kind for v in np.ravel(items))
    refused = [("SU", "numbers, not text"), ("b", "numbers, not bool")]
    if np.dtype(dtype).kind != "c":
        refused.append(("c", "real numbers, not complex"))
    for kind, what in refused:
        if kinds.intersection(kind):
            raise TypeError(f"{name} must hold {what}")
    try:
        return np.array(values, dtype=dtype, copy=copy)
    except OverflowError:
        raise ValueError(f"{name} must be finite") from None
    except TypeError:  # an object that is no number, as numpy's message does not say
        raise TypeError(f"{name} must hold numbers") from None


def check_result_bytes(n_bytes: int, what: str) -> None:
    """Raise ``LimitError`` if a result of ``n_bytes`` would exceed the cap."""
    if n_bytes > MAX_RESULT_BYTES:
        raise LimitError(
            f"{what} would take {n_bytes} bytes, over the result cap of {MAX_RESULT_BYTES}"
        )


def check_work(n_elements: int, n_steps: int, what: str) -> None:
    """Raise ``LimitError`` if ``n_steps`` steps of ``n_elements`` would exceed the work cap."""
    work = max(n_elements, _MIN_ELEMENTS) * n_steps
    if work > MAX_WORK:
        raise LimitError(f"{what} would take {work} element-steps, over the work cap of {MAX_WORK}")


def check_integers(**values) -> None:
    """Raise ``TypeError`` if a value is a bool or has no ``__index__``, as a float has."""
    for name, value in values.items():
        if isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, not bool")
        try:
            operator.index(value)
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None


def check_type(value, cls, name: str, what: str) -> None:
    """Raise ``TypeError("<name> must be <what>, got <type>")`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be {what}, got {type(value).__name__}")


def check_reals(lower=None, strict=False, **values) -> None:
    """Raise ``ValueError`` unless each value is finite and, if given, >= ``lower`` (> if ``strict``).

    A value is read with ``to_float``, so an integer beyond the float range is
    not finite; a string, which ``float`` would parse, a bool, Python's or
    numpy's (whose type is named ``bool`` too), which ``check_integers``
    refuses as well, and anything ``float`` cannot read are a ``TypeError``.
    """
    for name, value in values.items():
        try:
            if isinstance(value, (str, bytes, bytearray)) or type(value).__name__ == "bool":
                raise TypeError
            x = to_float(value)
        except TypeError:
            raise TypeError(f"{name} must be a real number, got {type(value).__name__}") from None
        if not math.isfinite(x) or (lower is not None and (x <= lower if strict else x < lower)):
            bound = "" if lower is None else f" and {'>' if strict else '>='} {lower}"
            raise ValueError(f"{name} must be finite{bound}, got {x}")


def check_phases(**phases: float) -> None:
    """Refuse a run before any phase array is built if a largest phase is out of range.

    The phases are Python floats, so computing them raises no numpy warning;
    an overflow shows as ``inf`` and is refused like ``nan``.
    """
    for name, value in phases.items():
        if not value <= _MAX_PHASE:  # also refuses NaN
            raise LimitError(f"{name} phase reaches {value:.3g} rad; it must be finite and <= 2**40")


def check_basis(n: int) -> None:
    """Raise ``LimitError`` if a split-step basis of ``n`` states would exceed the transform cap."""
    if n > MAX_TRANSFORM_SITES:
        raise LimitError(f"basis size {n} exceeds transform cap {MAX_TRANSFORM_SITES}")


def check_propagation(n: int, n_periods: int, snapshot_every: int) -> None:
    """Check a propagation's counts, then its sizes and work against the caps."""
    check_integers(n_periods=n_periods, snapshot_every=snapshot_every)
    if n_periods < 0:
        raise ValueError("n_periods must be >= 0")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    check_basis(n)
    n_snapshots = 1 + n_periods // snapshot_every + (n_periods % snapshot_every > 0)
    check_result_bytes(8 * n * n_snapshots, f"{n_snapshots} snapshots of {n} probabilities")
    check_work(n, n_periods, f"{n_periods} periods of {n} basis states")


def check_rotor(initial_momentum, k, hbar, n_basis, n_periods, snapshot_every) -> None:
    """Check a kicked-rotor run: its parameters, sizes, work, and free and kick phases."""
    check_integers(initial_momentum=initial_momentum, n_basis=n_basis)
    if n_basis < 2:
        raise ValueError("n_basis must be >= 2")
    check_reals(k=k)
    check_reals(0, True, hbar=hbar)
    check_propagation(n_basis, n_periods, snapshot_every)
    lo = initial_momentum - n_basis // 2
    l_max = to_float(max(abs(lo), abs(lo + n_basis - 1)))
    check_phases(free=0.5 * float(hbar) * l_max * l_max, kick=abs(float(k) / float(hbar)))


def check_ensemble(n: int, n_steps: int, record_every: int | None = None) -> None:
    """Check an ensemble's counts, then its size, records (or section) and work against the caps."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if record_every is not None and record_every < 1:
        raise ValueError("record_every must be >= 1")
    if n > MAX_ENSEMBLE:
        raise LimitError(f"ensemble size {n} exceeds cap {MAX_ENSEMBLE}")
    if record_every is None:
        check_result_bytes(16 * n * n_steps, f"a section of {n} x {n_steps} points")
    else:
        n_rows = n_steps // record_every + 1 + (n_steps % record_every > 0)
        check_result_bytes(8 * n_rows * n, f"{n_rows} records of {n} momenta")
    check_work(n, n_steps, f"{n_steps} steps of {n} trajectories")
