"""Scoring vectors, positional rule families, and limit scoring rules.

Every family produces, for each candidate count n, a non-increasing vector of
exact rationals with s(0)=1 and s(n-1)=0.  Families also expose closed-form
single-entry and prefix-sum evaluation so inequality scans over large n never
materialize vectors, plus the pointwise limit rule f(x) where one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .spaces import parse_number

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class ScoringVector:
    """Per-position scores for an n-candidate election.

    scores are exact rationals, non-increasing, with scores[0] == 1 and
    scores[n-1] == 0.  The degenerate n == 1 vector (1,) is permitted so a
    single-candidate election is representable.  ``float_scores`` is the
    read-only float64 copy the float election path consumes.
    """

    n: int
    scores: tuple
    float_scores: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or len(self.scores) != self.n:
            raise ValueError("scores length must equal n >= 1")
        if self.scores[0] != 1:
            raise ValueError("scores must start at 1")
        if self.n >= 2 and self.scores[-1] != 0:
            raise ValueError("scores must end at 0")
        if any(a < b for a, b in zip(self.scores, self.scores[1:])):
            raise ValueError("scores must be non-increasing")
        floats = np.array([float(s) for s in self.scores])
        floats.setflags(write=False)
        object.__setattr__(self, "float_scores", floats)


@dataclass(frozen=True)
class LimitValue:
    """Pointwise limit of a rule's scores at quantile x, if defined."""

    value: Optional[Fraction]

    @property
    def defined(self) -> bool:
        return self.value is not None


UNDEFINED_LIMIT = LimitValue(None)


class RuleFamily:
    """A positional voting system: a generator n -> ScoringVector."""

    spec = ""  # CLI syntax for this family

    def score_at(self, n: int, k: int) -> Fraction:
        raise NotImplementedError

    def prefix_sum(self, n: int, m: int) -> Fraction:
        """Sum of scores at positions 0..m-1 (closed form where possible)."""
        return sum((self.score_at(n, k) for k in range(m)), Fraction(0))

    def limit_value(self, x: Rational) -> LimitValue:
        raise NotImplementedError

    def score_vector(self, n: int) -> ScoringVector:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n == 1:
            return ScoringVector(1, (Fraction(1),))
        return ScoringVector(n, tuple(self.score_at(n, k) for k in range(n)))

    def __repr__(self):
        return f"{type(self).__name__}({self.spec!r})"

    def __eq__(self, other):
        return type(self) is type(other) and self.spec == other.spec

    def __hash__(self):
        return hash((type(self).__name__, self.spec))


def _check_x(x) -> Fraction:
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("quantile x must lie in [0, 1]")
    return x


class Plurality(RuleFamily):
    spec = "plurality"

    def score_at(self, n, k):
        return Fraction(1 if k == 0 else 0)

    def prefix_sum(self, n, m):
        return Fraction(min(m, 1))

    def limit_value(self, x):
        return LimitValue(Fraction(1 if _check_x(x) == 0 else 0))


class Veto(RuleFamily):
    spec = "veto"

    def score_at(self, n, k):
        return Fraction(1 if k < n - 1 else 0)

    def prefix_sum(self, n, m):
        return Fraction(min(m, n - 1))

    def limit_value(self, x):
        return LimitValue(Fraction(1 if _check_x(x) < 1 else 0))


class KApproval(RuleFamily):
    """Approve a fixed number k of candidates (clamped so s(n-1) stays 0)."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("kapproval needs k >= 1")
        self.k = k
        self.spec = f"kapproval:{k}"

    def _ones(self, n) -> int:
        return min(self.k, n - 1)

    def score_at(self, n, k):
        return Fraction(1 if k < self._ones(n) else 0)

    def prefix_sum(self, n, m):
        return Fraction(min(m, self._ones(n)))

    def limit_value(self, x):
        return LimitValue(Fraction(1 if _check_x(x) == 0 else 0))


class GammaApproval(RuleFamily):
    """Approve a constant fraction gamma of the candidates."""

    def __init__(self, gamma: Rational):
        gamma = Fraction(gamma)
        if not 0 < gamma < 1:
            raise ValueError("gapproval needs gamma in (0, 1)")
        self.gamma = gamma
        self.spec = f"gapproval:{gamma.numerator}/{gamma.denominator}"

    def _ones(self, n) -> int:
        # positions k <= floor(gamma * n) score 1, clamped so s(n-1) = 0
        return min(int(self.gamma * n) + 1, n - 1)

    def score_at(self, n, k):
        return Fraction(1 if k < self._ones(n) else 0)

    def prefix_sum(self, n, m):
        return Fraction(min(m, self._ones(n)))

    def limit_value(self, x):
        return LimitValue(Fraction(1 if _check_x(x) <= self.gamma else 0))


class Borda(RuleFamily):
    spec = "borda"

    def score_at(self, n, k):
        return Fraction(n - 1 - k, n - 1)

    def prefix_sum(self, n, m):
        # sum_{k<m} (n-1-k)/(n-1) = m*(2(n-1) - (m-1)) / (2(n-1))
        return Fraction(m * (2 * (n - 1) - (m - 1)), 2 * (n - 1))

    def limit_value(self, x):
        return LimitValue(1 - _check_x(x))


_HARMONIC = [Fraction(0)]


def _harmonic(m: int) -> Fraction:
    """Exact H_m = sum_{j<=m} 1/j, cached incrementally."""
    while len(_HARMONIC) <= m:
        _HARMONIC.append(_HARMONIC[-1] + Fraction(1, len(_HARMONIC)))
    return _HARMONIC[m]


class Dowdall(RuleFamily):
    """Nauru's harmonic scores 1/(k+1), affinely normalized."""

    spec = "dowdall"

    def score_at(self, n, k):
        return Fraction(n - (k + 1), (n - 1) * (k + 1))

    def prefix_sum(self, n, m):
        return (n * _harmonic(m) - m) / (n - 1)

    def limit_value(self, x):
        return LimitValue(Fraction(1 if _check_x(x) == 0 else 0))


class TableFamily(RuleFamily):
    """Raw score rows read from a table file, one ``n: v0 v1 ...`` per line,
    numbers written as in space files (``spaces.parse_number``).

    Rows are normalized on access; the limit rule of a finitely-specified
    table is unknowable, so limit queries are undefined.
    """

    def __init__(self, path: Optional[str] = None, rows: Optional[dict] = None):
        if (path is None) == (rows is None):
            raise ValueError("TableFamily needs exactly one of path/rows")
        self.spec = f"table:{path}" if path else "table:<inline>"
        if path is not None:
            rows = {}
            with open(path) as fh:
                for lineno, raw in enumerate(fh, start=1):
                    text = raw.split("#", 1)[0].strip()
                    if not text:
                        continue
                    head, _, rest = text.partition(":")
                    try:
                        n = int(head)
                        values = [Fraction(parse_number(t, lineno)) for t in rest.split()]
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: bad table row {text!r}") from None
                    if len(values) != n:
                        raise ValueError(f"{path}:{lineno}: row for n={n} has {len(values)} scores")
                    rows[n] = tuple(values)
        self.rows = dict(rows)
        self._cache: dict = {}

    def score_at(self, n, k):
        return self._vector(n).scores[k]

    def _vector(self, n: int) -> ScoringVector:
        if n not in self._cache:
            if n not in self.rows:
                raise ValueError(f"table family has no row for n={n}")
            self._cache[n] = normalize(self.rows[n])
        return self._cache[n]

    def score_vector(self, n):
        if n == 1:
            return ScoringVector(1, (Fraction(1),))
        return self._vector(n)

    def limit_value(self, x):
        _check_x(x)
        return UNDEFINED_LIMIT


def parse_family(spec: str) -> RuleFamily:
    """Parse CLI family syntax: borda | plurality | veto | kapproval:K |
    gapproval:NUM/DEN | dowdall | table:PATH."""
    name, _, arg = spec.strip().partition(":")
    name = name.lower()
    try:
        if name == "plurality":
            return Plurality()
        if name == "veto":
            return Veto()
        if name == "borda":
            return Borda()
        if name == "dowdall":
            return Dowdall()
        if name == "kapproval":
            return KApproval(int(arg))
        if name == "gapproval":
            return GammaApproval(Fraction(arg))
        if name == "table":
            return TableFamily(path=arg)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad family spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown family {spec!r}")


def score_vector(family: RuleFamily, n: int) -> ScoringVector:
    return family.score_vector(n)


def limit_value(family: RuleFamily, x: Rational) -> LimitValue:
    return family.limit_value(x)


def normalize(raw: Sequence) -> ScoringVector:
    """Affinely map a non-increasing score array to s(0)=1, s(n-1)=0."""
    values = [Fraction(v) for v in raw]
    if len(values) < 2:
        raise ValueError("need at least two scores to normalize")
    if any(a < b for a, b in zip(values, values[1:])):
        raise ValueError("scores must be non-increasing")
    first, last = values[0], values[-1]
    if first == last:
        raise ValueError("constant score vector cannot be normalized")
    span = first - last
    return ScoringVector(len(values), tuple((v - last) / span for v in values))
