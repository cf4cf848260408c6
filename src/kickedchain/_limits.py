"""The bounds on a run's in-memory result and on its work.

A run holds its whole result in memory before writing it: the snapshots of a
propagation, the record array of an ensemble, the points of a section.  Each
is sized and checked against ``MAX_RESULT_BYTES`` before it is allocated.  A
run's work, in element-steps (basis states times periods, trajectories times
map steps, with each period or step counted as at least ``_MIN_ELEMENTS``),
is checked against ``MAX_WORK`` before the first step.  The bounds are fixed;
they are not settings.
"""

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


def check_result_bytes(n_bytes: int, what: str) -> None:
    """Raise ``ValueError`` if a result of ``n_bytes`` would exceed the cap."""
    if n_bytes > MAX_RESULT_BYTES:
        raise ValueError(
            f"{what} would take {n_bytes} bytes, over the result cap of {MAX_RESULT_BYTES}"
        )


def check_work(n_elements: int, n_steps: int, what: str) -> None:
    """Raise ``ValueError`` if ``n_steps`` steps of ``n_elements`` would exceed the work cap."""
    work = max(n_elements, _MIN_ELEMENTS) * n_steps
    if work > MAX_WORK:
        raise ValueError(f"{what} would take {work} element-steps, over the work cap of {MAX_WORK}")
