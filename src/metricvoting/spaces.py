"""Finite metric spaces with point masses.

A space is a set of locations 0..P-1, a probability mass per location, and a
distance that is either a stored symmetric matrix or a pure derived function
(for instances far too large to materialize).  Masses and stored distances
may be exact rationals, in which case costs and ball masses are computed in
exact arithmetic; sampled/derived spaces run in float64.

File format (``save_space``/``load_space``)::

    version 1
    label optional free text
    points 3
    mass 1/2 3/10 1/5
    matrix
    1
    3 2

The ``matrix`` block holds the strict lower triangle, row by row.  A
``coords`` block (one line per point) followed by ``metric L1|L2|Linf`` may
replace ``matrix``.  Numbers are rational ``p/q`` literals, integers (both
parsed exactly), or decimal literals (parsed as float64).  Blank lines and
``#`` comments are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]

#: exhaustive triangle checking above this point count is replaced by sampling
DEFAULT_TRIPLE_CAP = 300
#: sampled triangle checks draw this many triples
DEFAULT_TRIANGLE_SAMPLES = 1_000_000

_MASS_SUM_TOL = 1e-12
_FLOAT_TRIANGLE_TOL = 1e-12

MODE_UNIFORM_BOX = "uniform-box-L2"
MODE_IID_DISTANCES = "iid-unit-interval-distances"
_MODE_CODES = {MODE_UNIFORM_BOX: 1, MODE_IID_DISTANCES: 2}


class SpaceFormatError(ValueError):
    """Raised on malformed space files; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SpaceValidationError(ValueError):
    """Raised when a loaded space violates the metric axioms."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        kinds = ", ".join(sorted({v.kind for v in report.violations}))
        super().__init__(f"space violates metric axioms: {kinds}")


def _exact_type(kind) -> bool:
    return issubclass(kind, (int, Fraction)) and not issubclass(kind, bool)


def _intake(values, ndim: int):
    """Masses, distances or coordinates, ``ndim``-dimensional, as (C-ordered
    float64 array, the values in row-major order as Fractions, or None): a
    numeric numpy array is float64 as given; Python numbers or an object
    array are exact when every value is an int or a Fraction.  C order makes
    ``MetricSpace.costs`` sum each column in location order."""
    numeric = isinstance(values, np.ndarray) and values.dtype != object
    values = np.asarray(values, dtype=np.float64 if numeric else object, order="C")
    if values.ndim != ndim:  # ragged rows make a 1-dimensional object array
        raise ValueError(f"expected {ndim}-dimensional numbers, got shape {values.shape}")
    if numeric:
        return values, None
    flat = values.ravel().tolist()
    if not all(map(_exact_type, set(map(type, flat)))):
        return values.astype(np.float64), None
    return values.astype(np.float64), [v if isinstance(v, Fraction) else Fraction(v) for v in flat]


class MetricSpace:
    """Immutable finite metric space with per-point probability masses.

    Construct with either ``matrix`` (stored symmetric distances) or
    ``block_fn`` (a pure broadcasting callable ``(i, j) -> float array`` for
    lazily derived distances, each entry bit for bit a function of its
    (i, j) alone, whatever the call's shape; elections overwrite the first
    row of a writeable C-ordered float64 array it returns and copy any
    other, so it returns a fresh or read-only one).  A numeric numpy array
    is taken as float64 and stored in C order; a space is exact when its
    masses and matrix are Python numbers or object arrays, every value an
    int or a Fraction.  All operations are pure; instances are safe to
    share across workers.
    """

    def __init__(
        self,
        mass: Sequence[Number],
        matrix=None,
        block_fn: Optional[Callable] = None,
        label: str = "",
    ):
        if (matrix is None) == (block_fn is None):
            raise ValueError("exactly one of matrix/block_fn is required")
        self.label = label
        self.mass, mass_exact = _intake(mass, 1)
        if self.mass.size == 0:
            raise ValueError("a metric space needs at least one point")
        self.npoints = self.mass.size
        self.matrix, matrix_exact = _intake(matrix, 2) if matrix is not None else (None, None)
        if matrix is not None and self.matrix.shape != (self.npoints, self.npoints):
            raise ValueError("distance matrix must be square and match the point count")
        self._block_fn = block_fn
        self.exact = mass_exact is not None and matrix_exact is not None
        self.mass_exact = self.matrix_exact = None
        if self.exact:
            n = self.npoints
            self.mass_exact = tuple(mass_exact)
            self.matrix_exact = tuple(tuple(matrix_exact[i : i + n]) for i in range(0, n * n, n))
        self.cum_mass = np.cumsum(self.mass)

    @cached_property
    def guide(self):
        """Guide table of inverse-CDF draws (Chen & Asau 1974) over K buckets,
        K the power of two from 16 P to 32 P, at most 4096 (32 KiB): entry k
        is the number of ``cum_mass`` entries <= u shared by every u in
        [k/K, (k+1)/K), or -1 where an entry splits that bucket."""
        size = min(4096, 1 << (16 * self.npoints - 1).bit_length())
        count = np.searchsorted(self.cum_mass, np.arange(size + 1) / size, side="right")
        return np.where(count[:-1] == count[1:], count[:-1], -1)

    @cached_property
    def costs(self):
        """Every location's social cost in float64, each summed over the
        locations in order, as ``brute_force_outcome`` sums it (``np.einsum``
        makes no BLAS call); None on a derived-distance space."""
        if self.matrix is None:
            return None
        return np.einsum("i,ij->j", self.mass, self.matrix)

    @cached_property
    def scaled_costs(self):
        """An exact space's social costs times both scales of ``scaled``."""
        mass, _, matrix, _ = self.scaled
        return np.einsum("i,ij->j", mass, matrix)

    @cached_property
    def ranks(self):
        """Each stored distance's dense rank among the distinct ones, in the
        smallest signed int dtype that holds it: an election's order of
        candidates, without distances.  Exact spaces rank their ``scaled``
        distances, so Fractions that round to one float rank apart; float
        spaces rank in ``np.unique`` order (-0.0 ties +0.0, +inf ties +inf,
        NaNs tie and rank last)."""
        if not self.exact:
            distinct, ranks = np.unique(self.matrix, return_inverse=True)
            return ranks.reshape(self.matrix.shape).astype(_int_dtype(distinct.size - 1))
        flat = self.scaled[2].ravel().tolist()
        rank = {d: r for r, d in enumerate(sorted(set(flat)))}
        return np.array([rank[d] for d in flat], _int_dtype(len(rank) - 1)).reshape(self.npoints, -1)

    @cached_property
    def scaled(self):
        """(mass, mass scale, matrix, distance scale): an exact space's masses
        and distances times the LCMs of their denominators (``_scaled_integers``)."""
        mass, mass_scale = _scaled_integers(self.mass_exact)
        matrix, scale = _scaled_integers([d for row in self.matrix_exact for d in row])
        return mass, mass_scale, matrix.reshape(self.npoints, -1), scale

    def __repr__(self):
        kind = "matrix" if self.matrix is not None else "derived"
        return f"MetricSpace(P={self.npoints}, {kind}, exact={self.exact}, label={self.label!r})"

    def distance(self, i: int, j: int):
        """Scalar distance; exact Fraction on exact spaces."""
        if self.matrix_exact is not None:
            return self.matrix_exact[i][j]
        if self.matrix is not None:
            return float(self.matrix[i, j])
        return float(self.dist_block(np.asarray([i]), np.asarray([j]))[0])

    def dist_block(self, i, j) -> np.ndarray:
        """Float distances for broadcast index arrays ``i``, ``j``."""
        if self.matrix is not None:
            return self.matrix[i, j]
        return self._block_fn(i, j)

    def distances_from(self, i: int) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix[i]
        return self.dist_block(i, np.arange(self.npoints))


@dataclass(frozen=True)
class Violation:
    """One failed axiom: ``magnitude`` is its size, a Fraction on exact spaces."""

    kind: str
    witness: tuple
    magnitude: Number


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()
    checked_triples: int = 0
    exhaustive: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations


def _magnitude(value, scale):
    """A violation's size from a distance (difference) times ``scale``: the
    exact Fraction, or a float where ``scale`` is None (a float space)."""
    return float(value) if scale is None else Fraction(int(value), scale)


def _triangle_scan(matrix: np.ndarray, tol, scale):
    """Scan all triples for d(i,k) > d(i,j) + d(j,k) + tol over ``matrix``
    (the distances times ``scale``, None on a float space); report at most
    8 witnesses per j and stop once more than 64 are reported, when the
    check has already failed."""
    found = []
    for j in range(matrix.shape[0]):
        excess = matrix - (matrix[:, j][:, None] + matrix[j][None, :])
        for i, k in np.argwhere(excess > tol)[:8]:
            found.append(Violation("triangle", (int(i), int(j), int(k)), _magnitude(excess[i, k], scale)))
        if len(found) > 64:
            break
    return found


def _int_dtype(top: int) -> np.dtype:
    """The smallest signed int dtype that holds 0..``top``: the smallest
    that holds -top - 1."""
    return np.min_scalar_type(-top - 1)


def _scaled_integers(values):
    """Exact values times the LCM of their denominators as Python ints (dtype
    object), on which sums and comparisons stay exact, and that LCM."""
    scale = math.lcm(*(v.denominator for v in values))
    return np.array([v.numerator * (scale // v.denominator) for v in values], dtype=object), scale


def validate(
    space: MetricSpace,
    triple_cap: int = DEFAULT_TRIPLE_CAP,
) -> ValidationReport:
    """Check the metric axioms and mass normalization; report, never raise.

    One set of checks reads ``dist(i, j)`` and two witness lists, the
    asymmetric and the negative pairs: of every pair of a stored matrix or
    of a derived space of at most ``triple_cap`` points (one P x P
    ``dist_block``), else of a fixed-seed sample of as many pairs as
    ``DEFAULT_TRIANGLE_SAMPLES``.  A derived space lists an asymmetric pair
    in both orders.  Triples are all checked up to ``triple_cap`` points,
    else sampled.  Exact spaces are checked in exact arithmetic, every axiom
    over their distances scaled to integers (``MetricSpace.scaled``).
    """
    violations = []
    npts = space.npoints

    if space.exact:
        for i, m in enumerate(space.mass_exact):
            if m < 0:
                violations.append(Violation("mass-negative", (i,), m))
        total = sum(space.mass_exact)
        if total != 1:
            violations.append(Violation("mass-sum", (), total - 1))
    else:
        for i in np.nonzero(space.mass < 0)[0][:16]:
            violations.append(Violation("mass-negative", (int(i),), float(space.mass[i])))
        err = abs(float(space.mass.sum()) - 1.0)
        if not err <= _MASS_SUM_TOL:  # a NaN mass makes a NaN sum
            violations.append(Violation("mass-sum", (), err))

    mat, scale, tol = space.matrix, None, _FLOAT_TRIANGLE_TOL
    if mat is None and npts <= triple_cap:  # one P x P block checks every pair and triple
        at = np.arange(npts)
        mat = space.dist_block(at[:, None], at)
    if mat is None:  # a fixed-seed sample of pairs
        rng = np.random.default_rng([0, npts, 7])
        a = rng.integers(0, npts, size=DEFAULT_TRIANGLE_SAMPLES)
        b = rng.integers(0, npts, size=a.size)
        dab, pairs = space.dist_block(a, b), np.column_stack((a, b))
        dist, asym, neg = space.dist_block, pairs[dab != space.dist_block(b, a)], pairs[dab < 0]
    else:
        if space.exact:
            _, _, mat, scale = space.scaled
            tol = 0
            if 3 * np.abs(mat).max() < 2**63:  # a triangle check's three-entry sums fit an int64
                mat = mat.astype(np.int64)
        dist, asym, neg = (lambda i, j: mat[i, j]), np.argwhere(mat != mat.T), np.argwhere(mat < 0)

    diag = np.arange(min(npts, 1 << 21))
    for i in np.nonzero(dist(diag, diag) != 0)[0][:16]:
        violations.append(Violation("diagonal", (int(i),), _magnitude(dist(i, i), scale)))
    for i, j in asym[:16]:
        if i < j or space.matrix is None:  # a block_fn's two orders are two computations
            magnitude = _magnitude(dist(i, j) - dist(j, i), scale)
            violations.append(Violation("asymmetry", (int(i), int(j)), magnitude))
    for i, j in neg[:16]:
        violations.append(Violation("negative-distance", (int(i), int(j)), _magnitude(dist(i, j), scale)))
    exhaustive = npts <= triple_cap
    with np.errstate(invalid="ignore"):  # inf - inf is NaN: a triangle that holds
        if exhaustive:
            violations.extend(_triangle_scan(mat, tol, scale))
        else:
            violations.extend(_sampled_triangle(npts, dist, tol, scale))
    checked = npts**3 if exhaustive else DEFAULT_TRIANGLE_SAMPLES
    return ValidationReport(tuple(violations), checked, exhaustive)


def _sampled_triangle(npoints: int, dist_block, tol, scale):
    """Check a fixed-seed sample of ``DEFAULT_TRIANGLE_SAMPLES`` triples for
    d(a,c) > d(a,b) + d(b,c) + tol over ``dist_block`` (the distances times
    ``scale``, None on a float space)."""
    rng = np.random.default_rng([0, npoints, 13])
    a, b, c = (rng.integers(0, npoints, size=DEFAULT_TRIANGLE_SAMPLES) for _ in range(3))
    excess = dist_block(a, c) - dist_block(a, b) - dist_block(b, c)
    return [Violation("triangle", (int(a[idx]), int(b[idx]), int(c[idx])), _magnitude(excess[idx], scale))
            for idx in np.nonzero(excess > tol)[0][:16]]


def outside_mass(space: MetricSpace, center: int, r):
    """Mass strictly outside the closed ball of radius ``r`` around ``center``."""
    if not 0 <= center < space.npoints:
        raise IndexError(f"location {center} out of range for P={space.npoints}")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if space.exact and _exact_type(type(r)):
        mass, mass_scale, matrix, scale = space.scaled
        return 1 - Fraction(mass[matrix[center] <= r * scale].sum(), mass_scale)
    d = space.distances_from(center)
    return float(1.0 - space.mass[d <= float(r)].sum())


# ---------------------------------------------------------------------------
# file I/O


def _format_number(value) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def parse_number(token: str, line: int):
    """One number of a space or table file, per the module docstring."""
    try:
        if "/" in token:
            return Fraction(token)
        if "." in token or "e" in token or "E" in token:
            value = float(token)
            if not math.isfinite(value):
                raise ValueError
            return value
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise SpaceFormatError(f"bad number {token!r}", line) from None


def save_space(space: MetricSpace, path) -> None:
    if space.matrix is None:
        raise ValueError("derived-distance spaces have no stored representation to save")
    masses = space.mass_exact if space.exact else space.mass.tolist()
    rows = space.matrix_exact if space.exact else space.matrix.tolist()
    lines = ["version 1"]
    if space.label:
        lines.append(f"label {space.label}")
    lines.append(f"points {space.npoints}")
    lines.append("mass " + " ".join(_format_number(m) for m in masses))
    lines.append("matrix")
    for i in range(1, space.npoints):
        lines.append(" ".join(_format_number(rows[i][j]) for j in range(i)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _coords_matrix(coords, metric: str, line: int):
    pts, exact = _intake(coords, 2)
    if metric not in ("L1", "L2", "Linf"):
        raise SpaceFormatError(f"unknown metric {metric!r} (expected L1, L2, or Linf)", line)
    if exact is not None and metric != "L2":  # L1 and Linf stay exact: an object array of the Fractions
        pts = np.array(exact, dtype=object).reshape(pts.shape)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    if metric == "L2":
        return np.sqrt((diff**2).sum(axis=2))
    return diff.sum(axis=2) if metric == "L1" else diff.max(axis=2)


def load_space(path, validate_axioms: bool = True) -> MetricSpace:
    """Parse a space file; reject axiom violations unless ``validate_axioms=False``."""
    with open(path) as fh:
        raw_lines = fh.readlines()
    lines = []  # (lineno, tokens)
    for lineno, raw in enumerate(raw_lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            lines.append((lineno, text.split()))

    pos = 0

    def take(expected: Optional[str] = None):
        nonlocal pos
        if pos >= len(lines):
            raise SpaceFormatError(
                f"unexpected end of file (expected {expected})" if expected else "unexpected end of file",
                len(raw_lines),
            )
        item = lines[pos]
        pos += 1
        return item

    lineno, tokens = take("version")
    if tokens[:1] != ["version"] or tokens[1:] != ["1"]:
        raise SpaceFormatError("expected 'version 1'", lineno)

    label = ""
    lineno, tokens = take("points")
    if tokens[0] == "label":
        label = " ".join(tokens[1:])
        lineno, tokens = take("points")
    if tokens[0] != "points" or len(tokens) != 2:
        raise SpaceFormatError("expected 'points P'", lineno)
    try:
        npts = int(tokens[1])
    except ValueError:
        raise SpaceFormatError(f"bad point count {tokens[1]!r}", lineno) from None
    if npts < 1:
        raise SpaceFormatError("point count must be >= 1", lineno)

    lineno, tokens = take("mass")
    if tokens[0] != "mass":
        raise SpaceFormatError("expected 'mass ...'", lineno)
    masses = [parse_number(t, lineno) for t in tokens[1:]]
    if len(masses) != npts:
        raise SpaceFormatError(f"expected {npts} masses, got {len(masses)}", lineno)

    lineno, tokens = take("matrix or coords")
    if tokens == ["matrix"]:
        rows = [[Fraction(0)] * npts for _ in range(npts)]  # every entry off the diagonal is read below
        for i in range(1, npts):
            lineno, tokens = take(f"matrix row {i}")
            if len(tokens) != i:
                raise SpaceFormatError(f"matrix row {i} needs {i} entries, got {len(tokens)}", lineno)
            for j, tok in enumerate(tokens):
                rows[i][j] = rows[j][i] = parse_number(tok, lineno)
        matrix = rows
    elif tokens == ["coords"]:
        coords = []
        width = None
        for _ in range(npts):
            lineno, tokens = take("coordinate row")
            if tokens[0] == "metric":
                raise SpaceFormatError(f"expected {npts} coordinate rows", lineno)
            row = [parse_number(t, lineno) for t in tokens]
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise SpaceFormatError(f"coordinate row has {len(row)} values, expected {width}", lineno)
            coords.append(row)
        lineno, tokens = take("metric")
        if tokens[0] != "metric" or len(tokens) != 2:
            raise SpaceFormatError("expected 'metric L1|L2|Linf'", lineno)
        matrix = _coords_matrix(coords, tokens[1], lineno)
    else:
        raise SpaceFormatError("expected 'matrix' or 'coords'", lineno)

    if pos != len(lines):
        raise SpaceFormatError("trailing content after space definition", lines[pos][0])

    space = MetricSpace(masses, matrix=matrix, label=label)
    if validate_axioms:
        report = validate(space)
        if not report.ok:
            raise SpaceValidationError(report)
    return space


# ---------------------------------------------------------------------------
# generators


def random_space(seed: int, npoints: int, mode: str) -> MetricSpace:
    """Seeded random space; deterministic in (seed, npoints, mode).

    ``uniform-box-L2`` scatters points in the unit square with random float
    masses.  ``iid-unit-interval-distances`` draws every pairwise distance
    i.i.d. from [1, 2] as an exact dyadic rational (any such matrix satisfies
    the triangle inequality) with exact rational masses.
    """
    if npoints < 1:
        raise ValueError("npoints must be >= 1")
    if mode not in _MODE_CODES:
        raise ValueError(f"unknown mode {mode!r} (expected one of {sorted(_MODE_CODES)})")
    rng = np.random.default_rng([_MODE_CODES[mode], seed, npoints])
    label = f"random-{mode}-P{npoints}-seed{seed}"

    if mode == MODE_UNIFORM_BOX:
        pts = rng.random((npoints, 2))
        mass = rng.uniform(0.5, 1.5, npoints)
        mass /= mass.sum()
        return MetricSpace(mass, matrix=_coords_matrix(pts, "L2", None), label=label)

    denom = 1 << 20
    weights = rng.integers(1, 65, size=npoints)
    total = int(weights.sum())
    mass = [Fraction(int(w), total) for w in weights]
    rows = [[Fraction(0)] * npoints for _ in range(npoints)]
    for i in range(1, npoints):
        for j, draw in enumerate(rng.integers(0, denom, size=i).tolist()):
            rows[i][j] = rows[j][i] = Fraction(denom + draw, denom)
    return MetricSpace(mass, matrix=rows, label=label)
