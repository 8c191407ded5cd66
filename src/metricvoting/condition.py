"""Exact evaluation of the constant-distortion characterization inequality.

For a scoring vector s and quantile y in (0,1), with Y = ceil(y*(n-1)), the
characterization compares

    lhs = y * sum_{k=0}^{Y-1} (s(k) - s(Y))
    rhs = (1-y) * sum_{k=n-Y}^{n-1} (1 - s(k))

and the rule is constant-distortion iff some y makes lhs > rhs (strictly) for
all large n.  A shifted variant with slack factor 2 supports the sufficiency
argument.  Everything here is exact rational arithmetic: scans over a
(y, n) grid use each family's closed-form prefix sums as integer pairs and
build one Fraction per side, so no floats and no per-n vector
materialization.  A scan can only certify a finite horizon, and its verdict
says so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .scoring import RuleFamily, ScoringVector

DEFAULT_Y_GRID: Tuple[Fraction, ...] = (
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(7, 8),
    Fraction(9, 10),
    Fraction(19, 20),
    Fraction(99, 100),
)
DEFAULT_N_MAX = 2000

CONSTANT_BY_LIMIT = "ConstantByLimit"
SUPER_CONSTANT_BY_LIMIT = "SuperConstantByLimit"
INDETERMINATE_LIMIT = "IndeterminateLimit"

_CLASSIFIER_GRID = tuple(Fraction(i, 8) for i in range(1, 8))


def _ceil_y(y: Fraction, n: int) -> int:
    big_y = -((1 - n) * y.numerator // y.denominator)
    if not 1 <= big_y <= n - 1:
        raise ValueError(f"y={y} gives ceil(y*(n-1))={big_y} outside [1, n-1]")
    return big_y


def _minus(a: tuple, b: tuple) -> tuple:
    """a - b for (num, den) pairs; cross-multiplies only unequal denominators."""
    (a_num, a_den), (b_num, b_den) = a, b
    if a_den == b_den:
        return a_num - b_num, a_den
    return a_num * b_den - b_num * a_den, a_den * b_den


def _rhs(family: RuleFamily, n: int, big: int, w_num: int, w_den: int) -> Fraction:
    """Right side of both inequalities: (w_num/w_den) * (big - (P(n) - P(n-big)))."""
    tail_num, tail_den = _minus(family._prefix_terms(n, n), family._prefix_terms(n, n - big))
    return Fraction(w_num * (big * tail_den - tail_num), w_den * tail_den)


def condition_sides(vector: ScoringVector, y) -> Tuple[Fraction, Fraction]:
    """Exact (lhs, rhs) of the characterization inequality at quantile y."""
    y = Fraction(y)
    if not 0 < y < 1:
        raise ValueError("y must lie in (0, 1)")
    n = vector.n
    if n < 2:
        raise ValueError("condition needs n >= 2")
    s = vector.scores
    big_y = _ceil_y(y, n)
    lhs = y * sum((s[k] - s[big_y] for k in range(big_y)), Fraction(0))
    rhs = (1 - y) * sum((1 - s[k] for k in range(n - big_y, n)), Fraction(0))
    return lhs, rhs


def shifted_sides(vector: ScoringVector, z, m: int) -> Tuple[Fraction, Fraction]:
    """Exact (lhs, rhs) of the shifted inequality with offset m and slack 2."""
    z = Fraction(z)
    if not Fraction(1, 2) < z < 1:
        raise ValueError("z must lie in (1/2, 1)")
    n = vector.n
    big_z = _ceil_y(z, n)
    if m < 0 or m + big_z > n - 1:
        raise ValueError(f"offset m={m} overflows: m + {big_z} must stay <= n-1={n - 1}")
    s = vector.scores
    lhs = z * sum((s[m + k] - s[m + big_z] for k in range(big_z)), Fraction(0))
    rhs = 2 * (1 - z) * sum((1 - s[k] for k in range(n - big_z, n)), Fraction(0))
    return lhs, rhs


def condition_sides_family(family: RuleFamily, n: int, y) -> Tuple[Fraction, Fraction]:
    """Closed-form (lhs, rhs) via the family's integer prefix sums P.

    P(Y) - Y*s(Y) is written (Y+1)*P(Y) - Y*P(Y+1), as s(Y) = P(Y+1) - P(Y),
    so each side is built as one Fraction from integers.
    """
    y = Fraction(y)
    if not 0 < y.numerator < y.denominator:
        raise ValueError("y must lie in (0, 1)")
    return _family_sides(family, n, y)


def _family_sides(family: RuleFamily, n: int, y: Fraction) -> Tuple[Fraction, Fraction]:
    """condition_sides_family for a Fraction y checked to lie in (0, 1)."""
    y_num, y_den = y.numerator, y.denominator
    big_y = _ceil_y(y, n)
    p_num, p_den = family._prefix_terms(n, big_y)
    q_num, q_den = family._prefix_terms(n, big_y + 1)
    num, den = _minus(((big_y + 1) * p_num, p_den), (big_y * q_num, q_den))
    lhs = Fraction(y_num * num, y_den * den)
    return lhs, _rhs(family, n, big_y, y_den - y_num, y_den)


def shifted_sides_family(family: RuleFamily, n: int, z, m: int) -> Tuple[Fraction, Fraction]:
    z = Fraction(z)
    z_num, z_den = z.numerator, z.denominator
    if not z_den < 2 * z_num < 2 * z_den:
        raise ValueError("z must lie in (1/2, 1)")
    big_z = _ceil_y(z, n)
    if m < 0 or m + big_z > n - 1:
        raise ValueError(f"offset m={m} overflows: m + {big_z} must stay <= n-1={n - 1}")
    # P(m+Z) - P(m) - Z*s(m+Z) == (Z+1)*P(m+Z) - P(m) - Z*P(m+Z+1)
    p_num, p_den = family._prefix_terms(n, m + big_z)
    q_num, q_den = family._prefix_terms(n, m + big_z + 1)
    head = _minus(((big_z + 1) * p_num, p_den), family._prefix_terms(n, m))
    num, den = _minus(head, (big_z * q_num, q_den))
    lhs = Fraction(z_num * num, z_den * den)
    return lhs, _rhs(family, n, big_z, 2 * (z_den - z_num), z_den)


@dataclass(frozen=True)
class ConditionCell:
    y: Fraction
    n: int
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        # strict: ties count as failure
        return self.lhs > self.rhs


@dataclass(frozen=True)
class Verdict:
    """Horizon-relative scan verdict; never an asymptotic claim."""

    kind: str  # CertifiedConstantWithinHorizon | FailsEverywhereOnGrid | Mixed
    y: Fraction = None
    n0: int = None

    def __str__(self):
        if self.kind == "CertifiedConstantWithinHorizon":
            return f"CertifiedConstantWithinHorizon y={self.y} n0={self.n0}"
        return self.kind


@dataclass(frozen=True)
class ConditionReport:
    family_spec: str
    n_min: int
    n_max: int
    cells: tuple  # ConditionCell, grid-major order
    verdict: Verdict
    classifier: str


def scan(
    family: RuleFamily,
    y_grid: Sequence = DEFAULT_Y_GRID,
    n_min: int = 4,
    n_max: int = DEFAULT_N_MAX,
) -> ConditionReport:
    """Evaluate the inequality exactly over a (y, n) grid and classify.

    Verdict rules (horizon-relative by construction):
      * CertifiedConstantWithinHorizon(y, n0): y is the smallest grid value
        that holds for every n in [n0, n_max] with n0 <= n_max/2.
      * FailsEverywhereOnGrid: no grid cell with n >= n_max/2 holds.
      * Mixed: anything else.
    """
    y_grid = tuple(Fraction(y) for y in y_grid)
    if not y_grid:
        raise ValueError("empty y grid")
    if any(not 0 < y < 1 for y in y_grid):
        raise ValueError("grid quantiles must lie in (0, 1)")
    if n_min < 2:
        raise ValueError("n_min must be >= 2")
    if n_max < n_min:
        raise ValueError("n_max must be >= n_min")

    cells = []
    certified = []  # (y, n0) for qualifying y
    any_late_hold = False
    for y in y_grid:
        last_fail = None
        for n in range(n_min, n_max + 1):
            lhs, rhs = _family_sides(family, n, y)
            cell = ConditionCell(y, n, lhs, rhs)
            cells.append(cell)
            if cell.holds:
                if 2 * n >= n_max:
                    any_late_hold = True
            else:
                last_fail = n
        n0 = n_min if last_fail is None else last_fail + 1
        if n0 <= n_max and 2 * n0 <= n_max:
            certified.append((y, n0))

    if certified:
        y, n0 = min(certified)
        verdict = Verdict("CertifiedConstantWithinHorizon", y=y, n0=n0)
    elif not any_late_hold:
        verdict = Verdict("FailsEverywhereOnGrid")
    else:
        verdict = Verdict("Mixed")

    return ConditionReport(
        family_spec=family.spec,
        n_min=n_min,
        n_max=n_max,
        cells=tuple(cells),
        verdict=verdict,
        classifier=classify_by_limit(family),
    )


def classify_by_limit(family: RuleFamily) -> str:
    """Classify by the limit rule sampled on the open-interval octile grid.

    Non-constant f means constant distortion; constant f < 1 means
    super-constant; constant f = 1 is the one genuinely indeterminate case
    (the scan must arbitrate), as is a family with no known limit.
    """
    values = [family.limit_value(x) for x in _CLASSIFIER_GRID]
    if None in values:
        return INDETERMINATE_LIMIT
    first = values[0]
    if any(v != first for v in values):
        return CONSTANT_BY_LIMIT
    return INDETERMINATE_LIMIT if first == 1 else SUPER_CONSTANT_BY_LIMIT
