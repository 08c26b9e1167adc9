"""Runtime limits.

Enumeration caps keep brute-force closures honest: any walk that would grow
past the cap raises CapExceeded instead of thrashing.  The default can be
overridden with the PERMLAB_CAP environment variable or per call.  A loop
whose size is known before it starts is measured by check_cap, so every
such refusal reads "<what>, past cap <cap>; PERMLAB_CAP=<count> would
suffice".
"""

from __future__ import annotations

import os

from .errors import BadSetting, CapExceeded

DEFAULT_CAP = 200_000

# Entries per cache keyed on a group.  run_battery(7) fills 4760 in orbit,
# 2348 in _pointwise_stabilizer, 366 in _stabilizer_in and 458 in _chain.
CACHE_ENTRIES = 8192

# The battery's default seed (suite) and the axiom families check_axioms
# audits (trees).  The CLI parser offers both, and it is built before any
# verb runs, so they live here: the parser reads them without importing
# suite or trees, which only the suite and relations verbs need.
DEFAULT_SEED = 20260818
AXIOM_FAMILIES = ("semilinear", "C", "B", "D")


def element_cap(override: int | None = None) -> int:
    """Resolve the enumeration cap: explicit override > env var > default.

    Raises BadSetting when PERMLAB_CAP is not an integer of at least 1.
    """
    if override is not None:
        return override
    env = os.environ.get("PERMLAB_CAP")
    if env is None:
        return DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise BadSetting(f"PERMLAB_CAP must be an integer of at least 1, got {env!r}")
    return cap


def check_cap(count: int, what: str, cap: int | None = None) -> int:
    """Resolve the cap as element_cap does and return it; raise CapExceeded
    first when count, the size of the loop or table that what describes,
    is past it, naming count as the PERMLAB_CAP that would suffice."""
    limit = element_cap(cap)
    if count > limit:
        raise CapExceeded(f"{what}, past cap {limit}; PERMLAB_CAP={count} would suffice")
    return limit
