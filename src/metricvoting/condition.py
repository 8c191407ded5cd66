"""Exact evaluation of the constant-distortion characterization inequality.

For a scoring vector s and quantile y in (0,1), with Y = ceil(y*(n-1)), the
characterization compares

    lhs = y * sum_{k=0}^{Y-1} (s(k) - s(Y))
    rhs = (1-y) * sum_{k=n-Y}^{n-1} (1 - s(k))

and the rule is constant-distortion iff some y makes lhs > rhs (strictly) for
all large n.  A shifted variant supports the sufficiency argument: offset m
moves the left sum to s(m+k) - s(m+Y), and slack factor 2 doubles rhs.  Both
are exact rational arithmetic, computed once from the materialized scores
(the reference) and once from each family's closed-form prefix sums.  The
latter works on columns: for one y it takes every n of a scan at once, as
numpy object arrays of Python ints (never int64, whose products overflow),
and gives each side as an integer (num, den) pair per n.  A scan's cells are
flat slotted tuples that keep each side's numerator and denominator
unreduced, straight from the columns, and build a reduced Fraction only when
a side is read.  A scan can only certify a finite horizon, and its
verdict says so explicitly.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from typing import Sequence, Tuple

import numpy as np

from .scoring import RuleFamily, ScoringVector, int_column

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


def _ceil_y(q: Fraction, n: np.ndarray, m: int) -> np.ndarray:
    """Q = ceil(q*(n-1)) at each n of an int column, checked to lie in
    [1, n-1] with room for offset m."""
    big = -((1 - n) * q.numerator // q.denominator)
    bad = (big < 1) | (big > n - 1)
    if bad.any():
        raise ValueError(f"y={q} gives ceil(y*(n-1))={big[bad.argmax()]} outside [1, n-1]")
    if m < 0:
        raise ValueError(f"offset m={m} must be >= 0")
    over = m + big > n - 1
    if over.any():
        i = over.argmax()
        raise ValueError(f"offset m={m} overflows: m + {big[i]} must stay <= n-1={n[i] - 1}")
    return big


def _minus(a: tuple, b: tuple) -> tuple:
    """a - b for columns of (num, den) pairs; cross-multiplies only the
    entries whose denominators differ."""
    (a_num, a_den), (b_num, b_den) = a, b
    cross = a_den != b_den
    if not cross.any():
        return a_num - b_num, a_den
    num, den = a_num - b_num, a_den.copy()
    a_num, a_den, b_num, b_den = a_num[cross], a_den[cross], b_num[cross], b_den[cross]
    num[cross], den[cross] = a_num * b_den - b_num * a_den, a_den * b_den
    return num, den


def _vector_sides(vector: ScoringVector, q: Fraction, m: int, slack: int) -> Tuple[Fraction, Fraction]:
    """The sides at quantile q, offset m and slack, summed over the scores."""
    n, s = vector.n, vector.scores
    if n < 2:
        raise ValueError("condition needs n >= 2")
    big = _ceil_y(q, int_column([n]), m)[0]
    lhs = q * sum((s[m + k] - s[m + big] for k in range(big)), Fraction(0))
    rhs = slack * (1 - q) * sum((1 - s[k] for k in range(n - big, n)), Fraction(0))
    return lhs, rhs


def _prefix_sides(family: RuleFamily, n: np.ndarray, q: Fraction, m: int, slack: int, total=None) -> tuple:
    """(lhs, rhs, lhs > rhs) of ``_vector_sides`` at each n of an int column, from
    the family's prefix sums P, P(n) = total if given: each side a pair of integer
    columns (num, den), unreduced over den > 0, and a bool column (lhs > rhs
    cross-multiplies them): P(m+Q) - P(m) - Q*s(m+Q) = (Q+1)*P(m+Q) - P(m) - Q*P(m+Q+1)."""
    q_num, q_den = q.numerator, q.denominator
    big = _ceil_y(q, n, m)
    p_num, p_den = family._prefix_terms(n, m + big)
    r_num, r_den = family._prefix_terms(n, m + big + 1)
    head = (big + 1) * p_num, p_den
    if m:  # P(0) = 0
        head = _minus(head, family._prefix_terms(n, int_column([m] * len(n))))
    num, den = _minus(head, (big * r_num, r_den))
    lhs_num, lhs_den = q_num * num, q_den * den
    tail_num, tail_den = _minus(total or family._prefix_terms(n, n), family._prefix_terms(n, n - big))
    rhs_num, rhs_den = slack * (q_den - q_num) * (big * tail_den - tail_num), q_den * tail_den
    return (lhs_num, lhs_den), (rhs_num, rhs_den), lhs_num * rhs_den > rhs_num * lhs_den


def condition_sides(vector: ScoringVector, y) -> Tuple[Fraction, Fraction]:
    """Exact (lhs, rhs) of the characterization inequality at quantile y."""
    y = Fraction(y)
    if not 0 < y < 1:
        raise ValueError("y must lie in (0, 1)")
    return _vector_sides(vector, y, 0, 1)


def shifted_sides(vector: ScoringVector, z, m: int) -> Tuple[Fraction, Fraction]:
    """Exact (lhs, rhs) of the shifted inequality with offset m and slack 2."""
    z = Fraction(z)
    if not Fraction(1, 2) < z < 1:
        raise ValueError("z must lie in (1/2, 1)")
    return _vector_sides(vector, z, m, 2)


class ConditionCell(namedtuple("ConditionCell", "y n lhs_num lhs_den rhs_num rhs_den holds")):
    """One scanned (y, n): each side an unreduced integer pair over den > 0,
    ``lhs_num``/``lhs_den`` and ``rhs_num``/``rhs_den``, that ``lhs``/``rhs``
    reduce to a Fraction on read and ``lhs_terms``/``rhs_terms`` return as
    pairs; ``holds`` is lhs > rhs, strictly: ties count as failure.  One flat
    slotted tuple, with no per-instance ``__dict__`` and no nested tuples, so
    it is cheap to build and to keep."""

    __slots__ = ()

    lhs_terms = property(lambda self: (self.lhs_num, self.lhs_den))
    rhs_terms = property(lambda self: (self.rhs_num, self.rhs_den))
    lhs = property(lambda self: Fraction(self.lhs_num, self.lhs_den))
    rhs = property(lambda self: Fraction(self.rhs_num, self.rhs_den))

    def _key(self) -> tuple:  # equality and hash go by the reduced sides
        return self.y, self.n, self.lhs, self.rhs, self.holds

    def __eq__(self, other):  # never a plain tuple's field-by-field equality
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):  # unordered, as the raw pairs' order would disagree with ==
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __hash__(self):
        return hash(self._key())


_new_cell = partial(tuple.__new__, ConditionCell)  # from one tuple of the seven fields


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
    n = int_column(range(n_min, n_max + 1))
    total = family._prefix_terms(n, n)  # P(n) for every y
    late = 2 * n >= n_max
    for y in y_grid:
        (lhs_num, lhs_den), (rhs_num, rhs_den), holds = _prefix_sides(family, n, y, 0, 1, total)
        cells += map(_new_cell, zip(repeat(y), n, lhs_num, lhs_den, rhs_num, rhs_den, holds.tolist()))
        fails = np.flatnonzero(~holds)
        n0 = n_min if fails.size == 0 else n[fails[-1]] + 1  # the first n after the last failure
        any_late_hold = any_late_hold or (holds & late).any()
        if 2 * n0 <= n_max:
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
