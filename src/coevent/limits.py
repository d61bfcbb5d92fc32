"""Size caps shared across modules.

Every enumeration the package runs is bounded by one cap defined here.
Going over a cap raises SpaceTooLargeError (command-line exit code 3) whose
message names the cap and its value.  Only the history-space cap can be
changed: the COEVENT_MAX_OMEGA environment variable overrides its default.
PARTITION_REPORT_LIMIT is not an error: reports skip the partition listing
for larger spaces.
"""

from __future__ import annotations

import os

MAX_OMEGA_ENV = "COEVENT_MAX_OMEGA"
DEFAULT_MAX_OMEGA = 2**20
SECTOR_ENUMERATION_LIMIT = 20
# A search over Bell(11) = 678,570 partitions of 11 histories takes about
# 1.2 s (0.85-1.4 s) when only the one-cell partition passes (a generic weak
# search) and about 7 s (5.5-7.4 s) when every partition passes (a classical
# medium search, where building one report per partition dominates): 2 vCPU,
# one BLAS thread.  Bell(12) = 4,213,597 would take about six times as long.
PARTITION_COUNT_LIMIT = 1_000_000
ASSEMBLY_LIMIT = 100_000
COMPOSITION_WORK_LIMIT = 250_000_000
# A theta sweep runs one appendix-theta analysis per step, about 1.7 ms each
# (2 vCPU): 10,000 steps take about 17 s.
SWEEP_STEP_LIMIT = 10_000
PARTITION_REPORT_LIMIT = 6


def max_omega() -> int:
    """The history-space cap: COEVENT_MAX_OMEGA if set, else 2**20."""
    raw = os.environ.get(MAX_OMEGA_ENV)
    if raw is None:
        return DEFAULT_MAX_OMEGA
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_OMEGA_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{MAX_OMEGA_ENV} must be positive")
    return cap
