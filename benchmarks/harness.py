"""Shared pieces of the ``bench_*.py`` scripts.

Every committed ``BENCH_*.json`` record carries the machine it was
measured on; :func:`machine` is that block.
"""

import os
import platform


def machine():
    """``{python, cpus, available_cpus}`` for a benchmark record.

    ``available_cpus`` is what this process may actually run on
    (scheduler affinity), which is what bounds a parallel speedup;
    ``cpus`` is the host's total.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        available = os.cpu_count() or 1
    return {"python": platform.python_version(),
            "cpus": os.cpu_count(),
            "available_cpus": available}
