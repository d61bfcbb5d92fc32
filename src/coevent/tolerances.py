"""Numerical tolerances shared across modules.

All structural checks (unitarity of evolutions and bases, ket norms,
density-matrix trace and positivity) use EPS_UNIT.  Decoherence-functional
axiom residuals use EPS_DF.  An event is a zero set when its measure is at
most EPS_ZERO; measures inside (EPS_ZERO, BORDERLINE_MAX] are reported as
borderline instead of being silently classified either way.
"""

from __future__ import annotations

EPS_UNIT = 1e-9
EPS_DF = 1e-9
EPS_ZERO = 1e-9
BORDERLINE_MAX = 1e-7
ROUNDOFF_FLOOR = 1e-14  # reports write floats this close to zero as 0.0


def gamma(m: int) -> float:
    """gamma_m = m u / (1 - m u): a sum of m products computed in floating point
    is off by at most gamma_m times the sum of their absolute values (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section 3.1)."""
    u = 2.0**-53  # the unit round-off
    return m * u / (1.0 - m * u)


def tolerance_summary() -> dict:
    """Tolerances in report form, keyed by the names reports use."""
    return {
        "eps_unit": EPS_UNIT,
        "eps_df": EPS_DF,
        "eps_zero": EPS_ZERO,
        "borderline_band": [EPS_ZERO, BORDERLINE_MAX],
    }
