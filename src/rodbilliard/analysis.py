"""Diagnostic sequences for long-orbit asymptotics.

The impact recurrences predict delta_n ~ 3/(2n), b_n - 1 ~ delta_n,
r_{n+1}/r_n ~ 1 + 3/(2n) and t_n ~ (3/2) ln n.  The table below scales
the simulated sequences so those limits read off as constants; the
growth-constant estimator probes the conjectured z(t) ~ c e^t tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .simulator import TrajectoryRecord


@dataclass(frozen=True, slots=True)
class AsymptoticRow:
    n: int
    delta_n: float
    n_delta_n: float
    b_minus_1_scaled: float
    ratio_scaled: float
    t_over_logn: float
    height_n: float
    a_n: float


def asymptotic_table(record: TrajectoryRecord,
                     ns: list[int]) -> list[AsymptoticRow]:
    """Scaled diagnostics at the requested impact indices (1-based).

    Each row needs impact n+1 (for delta_n and the radius ratio), so the
    record must hold at least max(ns) + 1 impacts.
    """
    if not ns:
        return []
    if min(ns) < 1:
        raise ValueError(f"impact indices are 1-based, got {min(ns)}")
    need = max(ns) + 1
    if need > len(record.t):
        raise ValueError(
            f"need {need} impacts for n = {max(ns)}, record has "
            f"{len(record.t)}")
    rows = []
    for n in sorted(set(ns)):
        delta, t = record.delta[n - 1], record.t[n - 1]
        rows.append(AsymptoticRow(
            n=n,
            delta_n=delta,
            n_delta_n=n * delta,
            b_minus_1_scaled=n * record.beta[n - 1],
            ratio_scaled=n * (record.r[n] / record.r[n - 1] - 1.0),
            t_over_logn=t / math.log(n) if n > 1 else math.nan,
            height_n=record.heights[n - 1],
            a_n=record.a[n - 1],
        ))
    return rows


def estimate_growth_constant(record: TrajectoryRecord
                             ) -> tuple[float, list[float]]:
    """Tail estimate of c in r_n ~ c e^{t_n}, with per-impact residuals.

    c is the mean of r_n e^{-t_n} over the second half of the record;
    residuals are r_n e^{-t_n} / c - 1 over that tail.  No convergence is
    asserted: the exponential growth law is conjectural.
    """
    n = len(record.t)
    if n < 1000:
        raise ValueError(
            f"growth estimate needs at least 1000 impacts, record has {n}")
    vals = [r * math.exp(-t)
            for r, t in zip(record.r[n // 2:], record.t[n // 2:])]
    c = math.fsum(vals) / len(vals)
    return c, [v / c - 1.0 for v in vals]
