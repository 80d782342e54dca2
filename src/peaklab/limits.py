"""Size guards for group sweeps and enumeration oracles, and the one cache
registry behind them.

Everything in this package is exact, so the only thing standing between a
user and a week-long computation is the size of the group being swept.
Guards are soft: the PEAKLAB_MAX_N environment variable raises (or lowers)
every cap at once, and most entry points take ``force=True`` to bypass the
check entirely.

Class-level data (group tuples and their index tables, class partitions,
class polynomials, factorization counts, per-class enumerators,
realizations) is built once per process and kept in ``_CACHES``, one dict
per cache name, filled only by ``memo``.  Each caller runs its size guard
before its ``memo`` call, so a value that a forced call cached never lifts
the guard for a later unforced one.
"""

from __future__ import annotations

import os


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds its size guard."""


# Default caps.  Iteration alone is cheap, so the group iterators allow a
# little more than the quadratic sweeps used by identity verification.
SYMMETRIC_ITER_MAX = 8
HYPEROCT_ITER_MAX = 6
VERIFY_MAX = {"S": 6, "B": 4}
POSET_ORACLE_MAX_N = 6
IMAGE_SET_MAX_K = 5
LINEXT_MAX = {"A": 8, "B": 5}
BIPARTITE_MAX_N = 5
BIPARTITE_MAX_VARS = 3
PEAK_RANK_MAX_N = 7


def env_override() -> int | None:
    """The PEAKLAB_MAX_N cap, or None when it is unset or empty.  A value
    that is not an integer is an error, not a silent fall-back."""
    raw = os.environ.get("PEAKLAB_MAX_N")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"PEAKLAB_MAX_N must be an integer, not {raw!r}") from None


def check_limit(what: str, n: int, default_max: int, force: bool = False) -> None:
    """Raise ResourceLimitError if n exceeds the effective cap for `what`."""
    if force:
        return
    cap = env_override()
    if cap is None:
        cap = default_max
    if n > cap:
        raise ResourceLimitError(
            f"{what}: n={n} exceeds the size guard {cap} "
            f"(to override, set PEAKLAB_MAX_N, pass force=True in Python or --force "
            f"on the command line)"
        )


_CACHES: dict[str, dict] = {}


def memo(name: str, key, build):
    """The value cached under key in the named cache, made by build() on the
    first request.  The caller checks its size guard first."""
    cache = _CACHES.setdefault(name, {})
    if key not in cache:
        cache[key] = build()
    return cache[key]
