"""The one bound on the size of a run's in-memory result.

A run holds its whole result in memory before writing it: the snapshots of a
propagation, the record array of an ensemble, the points of a section.  Each
is sized and checked against ``MAX_RESULT_BYTES`` before it is allocated.  The
bound is fixed; it is not a setting.
"""

MAX_RESULT_BYTES = 2**30


def check_result_bytes(n_bytes: int, what: str) -> None:
    """Raise ``ValueError`` if a result of ``n_bytes`` would exceed the cap."""
    if n_bytes > MAX_RESULT_BYTES:
        raise ValueError(
            f"{what} would take {n_bytes} bytes, over the result cap of {MAX_RESULT_BYTES}"
        )
