"""The paper's §4.3 formulas.

The paper counts only *upper→lower* calls, the calls the application
makes into the CUDA runtime, because those are the calls a
checkpointing architecture adds overhead to. One kernel launch makes
three of them (``cudaPushCallConfiguration``,
``cudaPopCallConfiguration``, ``cudaLaunchKernel``), so::

    Total CUDA calls = 3 × count(cudaLaunchKernel) + count(rest of API)   (eq. 2)

The dispatch backends count push/pop explicitly, so eq. 2 reduces to
summing the backend's ``call_counter``; :func:`total_calls_formula`
recomputes it the paper's way as a cross-check.
"""

from __future__ import annotations

from collections import Counter

#: The entry points a launch's 3× factor already accounts for.
_LAUNCH_CALLS = (
    "cudaLaunchKernel",
    "cudaPushCallConfiguration",
    "cudaPopCallConfiguration",
)


def overhead_pct(time_with: float, time_native: float) -> float:
    """Runtime overhead % (paper eq. 1).

    ``(E_CRAC − E_native) / E_native × 100`` — negative values happen in
    practice (caching and run-to-run noise; the paper observes them for
    Hotspot3D and Kmeans).
    """
    if time_native <= 0:
        raise ValueError("native time must be positive")
    return (time_with - time_native) / time_native * 100.0


def cps(total_calls: int, exec_time_s: float) -> float:
    """CUDA calls per second (paper eq. 2's CPS).

    ``total_calls`` must already follow the Total-CUDA-calls convention
    (one kernel launch = 3 calls), which the dispatch backends enforce.
    Table 1 divides by the whole process lifetime (startup and any
    checkpoint/restart included), and so does ``RunResult.cps``.
    """
    if exec_time_s <= 0:
        raise ValueError("execution time must be positive")
    return total_calls / exec_time_s


def total_calls_formula(calls: Counter) -> int:
    """The paper's eq. 2 over a per-entry-point call counter:
    3×launches + every other entry point (the push/pop pair is what the
    3× factor accounts for)."""
    rest = sum(v for k, v in calls.items() if k not in _LAUNCH_CALLS)
    return 3 * calls.get("cudaLaunchKernel", 0) + rest
