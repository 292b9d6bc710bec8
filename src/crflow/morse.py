"""Mechanical verification of the Morse-theoretic existence hypotheses.

The counted critical points are those with a negative sub-Laplacian; with
m_i the number of such points of index 2n+1-i, the obstruction system is

    m_0 = 1 + k_0,   m_i = k_{i-1} + k_i  (1 <= i <= 2n+1),   k_{2n+1} = 0,

solved by exact forward substitution.  The existence hypotheses hold iff the
system has no nonnegative solution AND max f / min f < 2^{1/n} (strictly).
Everything here is integer arithmetic except the ratio test.
"""

from dataclasses import dataclass
from math import isfinite

from .errors import IndexOutOfRange, NonPositiveMin


@dataclass(frozen=True)
class CriticalPoint:
    index: int                  # Morse index in [0, 2n+1]
    laplacian_sign: int         # sign of Lap_b f at the point, -1 or +1
    f_value: float
    location: tuple | None = None


@dataclass(frozen=True)
class MorseData:
    n: int
    critical_points: tuple
    f_max: float
    f_min: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (isfinite(self.f_max) and isfinite(self.f_min)):
            raise ValueError("f_max and f_min must be finite")
        if self.f_min <= 0:
            raise NonPositiveMin("f_min must be positive")
        if self.f_min > self.f_max:
            raise ValueError("f_min exceeds f_max")
        top = 2 * self.n + 1
        for p in self.critical_points:
            if not (0 <= p.index <= top):
                raise IndexOutOfRange(
                    f"Morse index {p.index} outside [0, {top}]")
            if p.laplacian_sign not in (-1, 1):
                raise ValueError("laplacian_sign must be -1 or +1 (nondegenerate)")
            if not (self.f_min - 1e-12 <= p.f_value <= self.f_max + 1e-12):
                raise ValueError("critical value outside [f_min, f_max]")


def counts(data: MorseData):
    """m_i = #{points with negative sub-Laplacian and index 2n+1-i}."""
    m = [0] * (2 * data.n + 2)
    for p in data.critical_points:
        if p.laplacian_sign < 0:
            m[2 * data.n + 1 - p.index] += 1
    return m


def solve_k(m, n):
    """Nonnegative solution of the count system, or None.

    Forward substitution k_0 = m_0 - 1, k_i = m_i - k_{i-1}; a solution exists
    iff every k_i >= 0 and the last one closes at zero, and it is unique."""
    if len(m) != 2 * n + 2:
        raise ValueError(f"m must have length {2 * n + 2}")
    k = [m[0] - 1]
    if k[0] < 0:
        return None
    for i in range(1, 2 * n + 2):
        k.append(m[i] - k[i - 1])
        if k[-1] < 0:
            return None
    if k[-1] != 0:
        return None
    return k


def degree_sum(data: MorseData):
    """Sum of (-1)^{index} over the negative-sub-Laplacian points."""
    return degree_sum_from_counts(counts(data), data.n)


def degree_sum_from_counts(m, n):
    # index = 2n+1-i, so (-1)^{index} = -(-1)^i
    return sum(-((-1) ** i) * mi for i, mi in enumerate(m))


def sbc_check(f_max, f_min, n):
    """Strict bubble-ratio condition max f / min f < 2^{1/n}; ties fail."""
    if f_min <= 0:
        raise NonPositiveMin("f_min must be positive")
    return f_max / f_min < 2.0 ** (1.0 / n)


@dataclass(frozen=True)
class GateReport:
    n: int
    m: tuple
    k: tuple | None
    degree_sum: int
    sbc: bool
    ratio: float
    threshold: float
    satisfied: bool
    warnings: tuple = ()

    def lines(self):
        out = [
            f"n = {self.n}",
            f"m = {list(self.m)}",
            "k = none (system unsolvable)" if self.k is None else f"k = {list(self.k)}",
            f"degree sum = {self.degree_sum}",
            f"max f / min f = {self.ratio:.6f} vs threshold 2^(1/n) = {self.threshold:.6f}"
            f" -> sbc {'holds' if self.sbc else 'fails'}",
            f"verdict: hypotheses {'satisfied' if self.satisfied else 'not satisfied'}",
        ]
        out.extend(f"warning: {w}" for w in self.warnings)
        return out


def theorem_gate(data: MorseData):
    """Full report: counts, the k-system, the degree sum, the ratio test and
    the combined verdict (unsolvable system AND strict ratio bound)."""
    m = counts(data)
    k = solve_k(m, data.n)
    deg = degree_sum_from_counts(m, data.n)
    ratio = data.f_max / data.f_min
    sbc = sbc_check(data.f_max, data.f_min, data.n)
    warnings = ()
    if data.n < 2:
        warnings = ("n = 1 lies outside the range covered by the existence "
                    "theorem; the verdict is exploratory",)
    return GateReport(
        n=data.n, m=tuple(m), k=None if k is None else tuple(k),
        degree_sum=deg, sbc=sbc, ratio=ratio,
        threshold=2.0 ** (1.0 / data.n),
        satisfied=(k is None and sbc), warnings=warnings)
