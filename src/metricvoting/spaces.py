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
from typing import Callable, Optional, Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]

#: exhaustive triangle checking above this point count is replaced by sampling
DEFAULT_TRIPLE_CAP = 300
#: sampled triangle checks draw at least this many triples
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


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


class MetricSpace:
    """Immutable finite metric space with per-point probability masses.

    Construct with either ``matrix`` (stored symmetric distances) or
    ``block_fn`` (a pure broadcasting callable ``(i, j) -> float array`` for
    lazily derived distances).  All operations are pure; instances are safe
    to share across workers.
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

        mass_list = list(np.asarray(mass).tolist()) if isinstance(mass, np.ndarray) else list(mass)
        if len(mass_list) == 0:
            raise ValueError("a metric space needs at least one point")
        self.npoints = len(mass_list)

        mass_rational = all(_is_exact(m) for m in mass_list)

        self.matrix_exact = None
        self.matrix = None
        self._block_fn = block_fn
        if matrix is not None:
            if isinstance(matrix, np.ndarray) and matrix.dtype != object:
                rows = None
                self.matrix = np.asarray(matrix, dtype=np.float64)
            else:
                rows = [list(r) for r in matrix]
                if any(len(r) != self.npoints for r in rows) or len(rows) != self.npoints:
                    raise ValueError("distance matrix must be square and match the point count")
            if rows is not None:
                if mass_rational and all(_is_exact(d) for r in rows for d in r):
                    self.matrix_exact = tuple(tuple(Fraction(d) for d in r) for r in rows)
                self.matrix = np.array([[float(d) for d in r] for r in rows], dtype=np.float64)
            if self.matrix.shape != (self.npoints, self.npoints):
                raise ValueError("distance matrix must be square and match the point count")

        self.exact = self.matrix_exact is not None
        self.mass_exact = tuple(Fraction(m) for m in mass_list) if self.exact else None
        self.mass = np.array([float(m) for m in mass_list], dtype=np.float64)
        self.cum_mass = np.cumsum(self.mass)

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
        return self.dist_block(np.full(self.npoints, i), np.arange(self.npoints))


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()
    checked_triples: int = 0
    exhaustive: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations


def _triangle_scan(matrix: np.ndarray, tol, scale=1):
    """Scan all triples for d(i,k) > d(i,j) + d(j,k) + tol over ``matrix``
    (the distances times ``scale``); report at most 8 witnesses per j and
    stop once more than 64 are reported, when the check has already failed."""
    found = []
    for j in range(matrix.shape[0]):
        excess = matrix - (matrix[:, j][:, None] + matrix[j][None, :])
        for i, k in np.argwhere(excess > tol)[:8]:
            magnitude = float(Fraction(int(excess[i, k]), scale)) if scale != 1 else float(excess[i, k])
            found.append(Violation("triangle", (int(i), int(j), int(k)), magnitude))
        if len(found) > 64:
            break
    return found


def _scaled_integer_matrix(rows):
    """Exact distances times the LCM of their denominators, as int64 when the
    scan's sums of two entries cannot overflow, else as Python ints."""
    scale = math.lcm(*(d.denominator for r in rows for d in r))
    ints = [[d.numerator * (scale // d.denominator) for d in r] for r in rows]
    big = max(abs(v) for r in ints for v in r)
    return np.array(ints, dtype=np.int64 if 3 * big < 2**63 else object), scale


def validate(
    space: MetricSpace,
    triple_cap: int = DEFAULT_TRIPLE_CAP,
    triangle_samples: int = DEFAULT_TRIANGLE_SAMPLES,
    seed: int = 0,
) -> ValidationReport:
    """Check the metric axioms and mass normalization; report, never raise.

    All triples are checked when the space stores a matrix and has at most
    ``triple_cap`` points; otherwise a seeded sample of ``triangle_samples``
    triples is drawn.  Exact spaces are checked in exact arithmetic, over
    the distances scaled to integers by the LCM of their denominators.
    """
    violations = []
    npts = space.npoints

    if space.exact:
        for i, m in enumerate(space.mass_exact):
            if m < 0:
                violations.append(Violation("mass-negative", (i,), float(m)))
        total = sum(space.mass_exact)
        if total != 1:
            violations.append(Violation("mass-sum", (), float(total - 1)))
    else:
        for i in np.nonzero(space.mass < 0)[0][:16]:
            violations.append(Violation("mass-negative", (int(i),), float(space.mass[i])))
        err = abs(float(space.mass.sum()) - 1.0)
        if err > _MASS_SUM_TOL:
            violations.append(Violation("mass-sum", (), err))

    checked = 0
    exhaustive = True
    if space.matrix is not None:
        mat = space.matrix
        for i in np.nonzero(np.diagonal(mat) != 0.0)[0][:16]:
            violations.append(Violation("diagonal", (int(i),), float(mat[i, i])))
        asym = np.argwhere(mat != mat.T)
        for i, j in asym[:16]:
            if i < j:
                violations.append(Violation("asymmetry", (int(i), int(j)), float(mat[i, j] - mat[j, i])))
        neg = np.argwhere(mat < 0)
        for i, j in neg[:16]:
            violations.append(Violation("negative-distance", (int(i), int(j)), float(mat[i, j])))

        if npts <= triple_cap:
            checked = npts**3
            if space.exact:
                ints, scale = _scaled_integer_matrix(space.matrix_exact)
                violations.extend(_triangle_scan(ints, 0, scale))
            else:
                violations.extend(_triangle_scan(mat, _FLOAT_TRIANGLE_TOL))
        else:
            exhaustive = False
            checked = triangle_samples
            violations.extend(_sampled_triangle(space, triangle_samples, seed))
    else:
        diag_idx = np.arange(min(npts, 1 << 21))
        bad_diag = np.nonzero(space.dist_block(diag_idx, diag_idx) != 0.0)[0]
        for i in bad_diag[:16]:
            violations.append(Violation("diagonal", (int(i),), float(space.distance(int(i), int(i)))))
        rng = np.random.default_rng([seed, npts, 7])
        a = rng.integers(0, npts, size=min(triangle_samples, 1 << 20))
        b = rng.integers(0, npts, size=a.size)
        dab, dba = space.dist_block(a, b), space.dist_block(b, a)
        for idx in np.nonzero(dab != dba)[0][:16]:
            violations.append(Violation("asymmetry", (int(a[idx]), int(b[idx])), float(dab[idx] - dba[idx])))
        for idx in np.nonzero(dab < 0)[0][:16]:
            violations.append(Violation("negative-distance", (int(a[idx]), int(b[idx])), float(dab[idx])))
        exhaustive = False
        checked = triangle_samples
        violations.extend(_sampled_triangle(space, triangle_samples, seed))

    return ValidationReport(tuple(violations), checked, exhaustive)


def _sampled_triangle(space: MetricSpace, samples: int, seed: int):
    rng = np.random.default_rng([seed, space.npoints, 13])
    out = []
    remaining = samples
    while remaining > 0:
        count = min(remaining, 1 << 20)
        a = rng.integers(0, space.npoints, size=count)
        b = rng.integers(0, space.npoints, size=count)
        c = rng.integers(0, space.npoints, size=count)
        excess = space.dist_block(a, c) - space.dist_block(a, b) - space.dist_block(b, c)
        for idx in np.nonzero(excess > _FLOAT_TRIANGLE_TOL)[0][:16]:
            out.append(
                Violation("triangle", (int(a[idx]), int(b[idx]), int(c[idx])), float(excess[idx]))
            )
        if len(out) > 64:
            break
        remaining -= count
    return out


def social_cost(space: MetricSpace, location: int):
    """Mass-weighted sum of distances from all points to ``location``."""
    if not 0 <= location < space.npoints:
        raise IndexError(f"location {location} out of range for P={space.npoints}")
    if space.exact:
        return sum(
            m * d for m, d in zip(space.mass_exact, space.matrix_exact[location])
        )
    return float(space.mass @ space.distances_from(location))


# exhaustive 1-median on derived-distance spaces is O(P^2) block evaluations;
# refuse above this rather than silently grinding
_DERIVED_MEDIAN_CAP = 4096


def one_median(space: MetricSpace) -> int:
    """Index minimizing social cost; ties broken by lowest index."""
    if space.npoints == 0:
        raise ValueError("empty space has no 1-median")
    if space.exact:
        best, best_cost = 0, social_cost(space, 0)
        for i in range(1, space.npoints):
            c = social_cost(space, i)
            if c < best_cost:
                best, best_cost = i, c
        return best
    if space.matrix is not None:
        return int(np.argmin(space.mass @ space.matrix))
    if space.npoints > _DERIVED_MEDIAN_CAP:
        raise ValueError(
            f"exhaustive 1-median on a derived-distance space is capped at "
            f"P={_DERIVED_MEDIAN_CAP} (got {space.npoints})"
        )
    costs = np.array([float(space.mass @ space.distances_from(i)) for i in range(space.npoints)])
    return int(np.argmin(costs))


def outside_mass(space: MetricSpace, center: int, r):
    """Mass strictly outside the closed ball of radius ``r`` around ``center``."""
    if not 0 <= center < space.npoints:
        raise IndexError(f"location {center} out of range for P={space.npoints}")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if space.exact and _is_exact(r):
        r = Fraction(r)
        inside = sum(
            m for m, d in zip(space.mass_exact, space.matrix_exact[center]) if d <= r
        )
        return 1 - inside
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
    npts = len(coords)
    exact = all(_is_exact(v) for row in coords for v in row)
    if metric == "L2":
        pts = np.array([[float(v) for v in row] for row in coords])
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))
    if metric not in ("L1", "Linf"):
        raise SpaceFormatError(f"unknown metric {metric!r} (expected L1, L2, or Linf)", line)
    agg = sum if metric == "L1" else max
    if exact:
        return [
            [agg(abs(a - b) for a, b in zip(coords[i], coords[j])) if i != j else Fraction(0) for j in range(npts)]
            for i in range(npts)
        ]
    pts = np.array([[float(v) for v in row] for row in coords])
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    return diff.sum(axis=2) if metric == "L1" else diff.max(axis=2)


def load_space(path, validate_axioms: bool = True, triple_cap: int = DEFAULT_TRIPLE_CAP) -> MetricSpace:
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
        rows = [[None] * npts for _ in range(npts)]
        zero = Fraction(0)
        for i in range(npts):
            rows[i][i] = zero
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
        report = validate(space, triple_cap=triple_cap)
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
        diff = pts[:, None, :] - pts[None, :, :]
        matrix = np.sqrt((diff**2).sum(axis=2))
        matrix = np.triu(matrix, 1)
        matrix = matrix + matrix.T  # exact symmetry
        return MetricSpace(mass, matrix=matrix, label=label)

    denom = 1 << 20
    weights = rng.integers(1, 65, size=npoints)
    total = int(weights.sum())
    mass = [Fraction(int(w), total) for w in weights]
    rows = [[Fraction(0)] * npoints for _ in range(npoints)]
    for i in range(1, npoints):
        draws = rng.integers(0, denom, size=i)
        for j in range(i):
            rows[i][j] = rows[j][i] = 1 + Fraction(int(draws[j]), denom)
    return MetricSpace(mass, matrix=rows, label=label)
