"""Size caps shared across modules, and refuse_above, the one check on them.

Every enumeration the package runs is bounded by a cap defined here.  Going
over one raises SpaceTooLargeError (exit code 3 from every command) with the
message ``<what, with the count>, above <CAP> = <value>``.  Only
COEVENT_MAX_OMEGA can be changed, by the environment variable of that name,
and its message adds ``; set COEVENT_MAX_OMEGA to raise it``.
PARTITION_REPORT_LIMIT is not an error: reports skip the partition listing
for larger spaces.
"""

from __future__ import annotations

import os

from .errors import SpaceTooLargeError

MAX_OMEGA_ENV = "COEVENT_MAX_OMEGA"
DEFAULT_MAX_OMEGA = 2**20
# Complex entries n r d of a schema's branch rows (n histories, r state
# columns, dimension d), several arrays of which build_df holds at once: two
# slices of d = 256 (2^24) peaked at 2.6 GB; 20 qubit slices (2^21) pass.
FACTOR_ENTRY_LIMIT = 2**22
# Table entries (floats) of one block's zero-set search: the half sums,
# 2^(k // 2) and 2^(k - k // 2) rows of 2c reals, and the 2^z subsets of its
# z null histories when those are needed.  2^22 entries is 32 MB of floats;
# it admits a block of 38 histories with c = 2 and of 40 (the width of the
# sort key) only with c = 1, so no block wider than the key gets past it.
ZERO_SET_WORK_LIMIT = 2**22
# Candidate events a grid join of the half sums measures, counted block by
# block before the pairs are formed: a bound on the work and on the listed
# output of the blocks that take the join.  Each event of a block is at most
# one candidate, so every block of up to 20 histories passes, and no block
# lists more than the 2^20 events of a 20-history block (2^20 - 1 listed
# zero events of 21 histories took 0.55 s, and the process peaked at 197 MB;
# 2 vCPU).
ZERO_SET_CANDIDATE_LIMIT = 2**20
# A search over Bell(11) = 678,570 partitions of 11 histories took 0.19-0.25 s
# when only the one-cell partition passes (a generic weak search, c = 4) and
# 0.70-0.79 s when every partition passes (the medium search of the classical
# raw_df(eye(11) / 11), traced peak 31 MB): 3 runs each, 2 vCPU, one BLAS
# thread.  Bell(12) = 4,213,597 would take about six times as long and hold
# about six times the strings and residuals.
PARTITION_COUNT_LIMIT = 1_000_000
# Primitive co-events of one DF, counted while its zero-set catalog is built;
# MMCS, on a grid-join sector, also stops at cap + 1 within its sector.
# MMCS found 2^17 = 131,072 of them in 1.8 s on its slowest measured family
# (17 disjoint pairs; sorting and labelling them took another 1.0 s) and
# 100,000 in 0.22-0.28 s on five blocks of ten (2 vCPU), so the cap is
# reached within about 2 s.
COEVENT_COUNT_LIMIT = 2**17
ASSEMBLY_LIMIT = 100_000
COMPOSITION_WORK_LIMIT = 250_000_000
# A theta sweep builds and searches its appendix-theta DFs in batches, 0.15-0.22
# ms a step in process (600 and 10,000 steps, 2 vCPU): 10,000 steps take about
# 2 s, and 2.0-2.6 s through the CLI with the report written.
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


def refuse_above(cap: str, count: int, what: str) -> None:
    """Raise SpaceTooLargeError when ``count`` is above the cap named ``cap``,
    read now (COEVENT_MAX_OMEGA: max_omega()), so a test patches it here."""
    value = max_omega() if cap == MAX_OMEGA_ENV else globals()[cap]
    if count > value:
        hint = f"; set {MAX_OMEGA_ENV} to raise it" if cap == MAX_OMEGA_ENV else ""
        raise SpaceTooLargeError(f"{what}, above {cap} = {value}{hint}")
