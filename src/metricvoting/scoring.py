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


class RuleFamily:
    """A positional voting system: a generator n -> ScoringVector."""

    spec = ""  # CLI syntax for this family

    def score_at(self, n: int, k: int) -> Fraction:
        raise NotImplementedError

    def prefix_sum(self, n: int, m: int) -> Fraction:
        """Sum of scores 0..m-1: one cell of ``_prefix_terms``, kept for callers outside the package."""
        num, den = self._prefix_terms(int_column([n]), int_column([m]))
        return Fraction(num[0], den[0])

    def _prefix_terms(self, n: np.ndarray, m: np.ndarray) -> tuple:
        """``prefix_sum`` at each (n, m) of two equal-length ``int_column``s,
        as unnormalized integer columns (num, den) of the same kind, den > 0;
        families with a closed form override this generic sum."""
        sums = [sum((self.score_at(a, k) for k in range(b)), Fraction(0)) for a, b in zip(n, m)]
        return int_column(s.numerator for s in sums), int_column(s.denominator for s in sums)

    def limit_value(self, x: Rational) -> Optional[Fraction]:
        """The limit rule f(x), or None where it is undefined."""
        raise NotImplementedError

    def score_vector(self, n: int) -> ScoringVector:
        """The vector for n candidates.  The instance keeps vectors of at most
        256 scores in all, emptied when one more would not fit; vectors are
        immutable, so callers share them."""
        memo = self.__dict__.setdefault("_vectors", {})
        vector = memo.get(n)
        if vector is None:
            if n < 1:
                raise ValueError("n must be >= 1")
            vector = ScoringVector(n, (Fraction(1),) if n == 1 else tuple(self.score_at(n, k) for k in range(n)))
            if sum(memo) + n > 256:
                memo.clear()
            if n <= 256:
                memo[n] = vector
        return vector

    def __repr__(self):
        return f"{type(self).__name__}({self.spec!r})"

    def __eq__(self, other):
        return type(self) is type(other) and self.spec == other.spec

    def __hash__(self):
        return hash((type(self).__name__, self.spec))


def int_column(values) -> np.ndarray:
    """A 1-D numpy object array of Python ints, on which arithmetic stays exact
    (an int64 column would overflow)."""
    return np.array([int(v) for v in values], dtype=object)


def _check_x(x) -> Fraction:
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("quantile x must lie in [0, 1]")
    return x


class _Approval(RuleFamily):
    """Approve the top positions: s(k) = 1 for k < _ones(n), clamped so
    s(n-1) = 0, and 0 after.  The limit rule is the step f(x) = 1 for
    x <= _step and 0 past it; f(1) = 0 always, as s(n-1) = 0.  A subclass
    defines ``_ones(n)`` and, where its step is not at 0, ``_step``."""

    _step = Fraction(0)

    def score_at(self, n, k):
        return Fraction(1 if k < min(self._ones(n), n - 1) else 0)

    def _prefix_terms(self, n, m):
        return np.minimum(np.minimum(m, self._ones(n)), n - 1), np.ones_like(m)

    def limit_value(self, x):
        x = _check_x(x)
        return Fraction(1 if x <= self._step and x < 1 else 0)


class Plurality(_Approval):
    spec = "plurality"

    def _ones(self, n):
        return 1


class Veto(_Approval):
    spec = "veto"
    _step = Fraction(1)

    def _ones(self, n):
        return n - 1


class KApproval(_Approval):
    """Approve a fixed number k of candidates."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("kapproval needs k >= 1")
        self.k = k
        self.spec = f"kapproval:{k}"

    def _ones(self, n):
        return self.k


class GammaApproval(_Approval):
    """Approve a constant fraction gamma of the candidates: positions
    k <= floor(gamma * n)."""

    def __init__(self, gamma: Rational):
        gamma = Fraction(gamma)
        if not 0 < gamma < 1:
            raise ValueError("gapproval needs gamma in (0, 1)")
        self.gamma = self._step = gamma
        self.spec = f"gapproval:{gamma.numerator}/{gamma.denominator}"

    def _ones(self, n):
        return self.gamma.numerator * n // self.gamma.denominator + 1


class Borda(RuleFamily):
    spec = "borda"

    def score_at(self, n, k):
        return Fraction(n - 1 - k, n - 1)

    def _prefix_terms(self, n, m):
        # sum_{k<m} (n-1-k)/(n-1) = m*(2(n-1) - (m-1)) / (2(n-1))
        return m * (2 * (n - 1) - (m - 1)), 2 * (n - 1)

    def limit_value(self, x):
        return 1 - _check_x(x)


_HARMONIC = (int_column([0]), int_column([1]))  # H_0 = 0/1


def _harmonic_terms(m: np.ndarray) -> tuple:
    """Exact H_m = sum_{j<=m} 1/j in lowest terms at each m of an int column,
    as (num, den) columns read from a table that at least doubles when an m
    outgrows it."""
    global _HARMONIC
    at = m.astype(np.intp)
    h_num, h_den = _HARMONIC
    if at.max(initial=0) >= len(h_num):
        h, grown = Fraction(h_num[-1], h_den[-1]), []
        for j in range(len(h_num), max(2 * len(h_num), at.max() + 1)):
            h += Fraction(1, j)
            grown.append(h)
        h_num = np.concatenate([h_num, int_column(g.numerator for g in grown)])
        h_den = np.concatenate([h_den, int_column(g.denominator for g in grown)])
        _HARMONIC = h_num, h_den
    return h_num[at], h_den[at]


class Dowdall(RuleFamily):
    """Nauru's harmonic scores 1/(k+1), affinely normalized."""

    spec = "dowdall"

    def score_at(self, n, k):
        return Fraction(n - (k + 1), (n - 1) * (k + 1))

    def _prefix_terms(self, n, m):
        # (n*H_m - m) / (n-1), over H_m's reduced denominator
        h_num, h_den = _harmonic_terms(m)
        return n * h_num - m * h_den, (n - 1) * h_den

    def limit_value(self, x):
        return Fraction(1 if _check_x(x) == 0 else 0)


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

    def limit_value(self, x):
        _check_x(x)
        return None


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
