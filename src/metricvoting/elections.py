"""Run one positional election on a metric space.

Voters at each location rank candidates by distance (ties broken by candidate
index, identically for all voters at a location), candidates collect
mass-weighted positional scores, and the outcome records winner, in-slate
optimum, and distortion.  On exact spaces the whole computation is exact
rational arithmetic; otherwise float64.

``brute_force_outcome`` is a deliberately naive second implementation kept
free of any shared ranking/scoring code; it exists so the fast path can be
checked against it on thousands of randomized instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .scoring import ScoringVector, parse_family
from .spaces import MetricSpace, random_space

#: fixed summation block: scores and costs are summed over blocks of this
#: many locations, so no other setting can change the output bits
_CHUNK_ROWS = 65536
#: locations hashed and ranked per pass inside a summation block, so their
#: temporaries stay in cache; it changes no output bit
_SUB_ROWS = 2048

INFINITE = math.inf


@dataclass(frozen=True)
class ElectionOutcome:
    """Scores, winner, in-slate optimum, and distortion for one election.

    ``distortion`` is winner_cost/optimum_cost, 1 when both costs are zero,
    and ``math.inf`` (with the trial meant to be flagged, never averaged)
    when only the optimum cost is zero.
    """

    scores: tuple
    winner: int
    optimum: int
    winner_cost: object
    optimum_cost: object
    distortion: object

    @property
    def infinite(self) -> bool:
        return self.distortion == INFINITE


def _distortion(winner_cost, optimum_cost):
    if isinstance(optimum_cost, np.ndarray):
        # elementwise on float costs: x/0 is inf, and 0/0 (optimum <= winner) is 1
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(winner_cost == 0, 1.0, winner_cost / optimum_cost)
    if optimum_cost == 0:
        return Fraction(1) if winner_cost == 0 else INFINITE
    return winner_cost / optimum_cost


def _outcome(scores, costs, winner: int, optimum: int) -> ElectionOutcome:
    return ElectionOutcome(
        scores=tuple(scores),
        winner=winner,
        optimum=optimum,
        winner_cost=costs[winner],
        optimum_cost=costs[optimum],
        distortion=_distortion(costs[winner], costs[optimum]),
    )


def _checked_slate(space: MetricSpace, slate) -> np.ndarray:
    slate = np.asarray(slate, dtype=np.int64)
    if slate.size == 0:
        raise ValueError("slate must contain at least one candidate")
    if slate.min() < 0 or slate.max() >= space.npoints:
        raise ValueError("slate entries must be valid point indices")
    return slate


def _rank(dist: np.ndarray, top_only: bool) -> np.ndarray:
    # along the last axis, one location row at a time; the first-index
    # argmin is column 0 of the stable argsort
    if top_only:
        return dist.argmin(axis=-1, keepdims=True)
    return np.argsort(dist, axis=-1, kind="stable")


def _ranked_blocks(space: MetricSpace, slates: np.ndarray, exact: bool, top_only: bool = False):
    """Yield (rows, dist, order) over all locations for a (T, n) stack of
    slates: dist[t] holds distances to slate t's candidates, order[t] ranks
    them by (distance, candidate index), or is only its first column when
    ``top_only``.  Exact mode takes one slate and yields one location of
    Fractions at a time; float mode yields summation blocks of
    ``_CHUNK_ROWS`` locations as a slice and (T, rows, .) arrays, views of
    buffers that the next block overwrites.  Spaces of more than
    ``_SUB_ROWS`` points take one slate (T = 1)."""
    if exact:
        (slate,) = slates.tolist()
        candidates = range(len(slate))
        for omega, row in enumerate(space.matrix_exact):
            dist = [row[c] for c in slate]
            # a stable sort by distance breaks ties by candidate index
            yield omega, dist, sorted(candidates, key=dist.__getitem__)
        return
    npoints = space.npoints
    if npoints <= _SUB_ROWS:
        dist = space.dist_block(np.arange(npoints)[None, :, None], slates[:, None, :])
        yield slice(0, npoints), dist, _rank(dist, top_only)
        return
    (slate,) = slates
    cols = slate[None, :]
    size = min(_CHUNK_ROWS, npoints)
    dist = np.empty((size, slate.size))
    order = np.empty((size, 1 if top_only else slate.size), dtype=np.int64)
    for start in range(0, npoints, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, npoints)
        for lo in range(start, stop, _SUB_ROWS):
            hi = min(lo + _SUB_ROWS, stop)
            sub = dist[lo - start : hi - start]
            sub[...] = space.dist_block(np.arange(lo, hi)[:, None], cols)
            order[lo - start : hi - start] = _rank(sub, top_only)
        yield slice(start, stop), dist[None, : stop - start], order[None, : stop - start]


def rankings(space: MetricSpace, slate: Sequence[int]) -> np.ndarray:
    """Per-location rankings: row omega lists candidate indices by
    (distance, candidate index) ascending."""
    slate = _checked_slate(space, slate)
    table = np.empty((space.npoints, slate.size), dtype=np.int64)
    for rows, _, order in _ranked_blocks(space, slate[None], space.exact):
        table[rows] = order
    return table


#: OpenBLAS thread-count entry points, by the names its builds export
_BLAS_NAMES = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
               "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _one_blas_thread(fn, *args):
    """``fn(*args)`` with the OpenBLAS that numpy links against on one thread,
    restoring its thread count after; ``fn(*args)`` as it is without one.
    How OpenBLAS splits a gemv between threads moves the last bits of some
    costs (n = 12 or 65 on a 65536-row block, say), so float elections sum
    costs on one thread whatever ``jobs`` and the core count.  Not for
    concurrent use by several threads of one process."""
    import ctypes

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return fn(*args)
    for name in _BLAS_NAMES:
        get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
        if get and put:
            threads = get()
            put(1)
            try:
                return fn(*args)
            finally:
                put(threads)
    return fn(*args)


def run_election(
    space: MetricSpace,
    slate: Sequence[int],
    vector: ScoringVector,
    exact: Optional[bool] = None,
) -> ElectionOutcome:
    """Score a slate of candidate locations under one scoring vector.

    Args:
        space: the voter space.
        slate: candidate locations (point indices; duplicates allowed;
            candidate identity is array position).
        vector: scoring vector with vector.n == len(slate).
        exact: force (True) or forbid (False) exact arithmetic; default uses
            exact arithmetic exactly when the space stores rationals.
    """
    slate = _checked_slate(space, slate)
    if vector.n != slate.size:
        raise ValueError(f"scoring vector is for n={vector.n}, slate has {slate.size}")
    if exact is None:
        exact = space.exact
    if exact and not space.exact:
        raise ValueError("exact election requires an exact space")
    if exact:
        return _run_exact(space, slate, vector)
    scores, costs, winners, optima = _one_blas_thread(_run_float, space, slate[None], vector)
    return _outcome(scores[0].tolist(), costs[0].tolist(), int(winners[0]), int(optima[0]))


def _run_exact(space, slate, vector):
    n = slate.size
    scores = [Fraction(0)] * n
    costs = [Fraction(0)] * n
    for omega, dist, order in _ranked_blocks(space, slate[None], exact=True):
        mass = space.mass_exact[omega]
        for pos, cand in enumerate(order):
            scores[cand] += mass * vector.scores[pos]
        for cand in range(n):
            costs[cand] += mass * dist[cand]
    winner = max(range(n), key=lambda i: (scores[i], -i))
    optimum = min(range(n), key=lambda i: (costs[i], i))
    return _outcome(scores, costs, winner, optimum)


def _run_float(space, slates, vector):
    """Float elections of a (T, n) stack of slates: scores and costs (T, n),
    winners and optima (T,)."""
    count, n = slates.shape
    scores = np.zeros((count, n))
    costs = np.zeros((count, n))
    # a vector that scores only the top choice (plurality) needs column 0 of
    # the ranking alone: the dropped terms are +0.0, so every bit is kept
    width = n if vector.float_scores[1:].any() else 1
    # slate t's candidates are bins t*n .. t*n + n - 1 of one bincount, each
    # summed in location order as for a single slate
    offsets = np.arange(0, count * n, n)[:, None, None]
    for rows, dist, order in _ranked_blocks(space, slates, False, width == 1):
        if count > 1:  # a lone slate's offset is 0
            order += offsets
        # the same mass * score weights for every slate, laid out like order
        weights = np.multiply(space.mass[rows][:, None], vector.float_scores[:width], out=np.empty(order.shape))
        scores += np.bincount(order.ravel(), weights=weights.ravel(), minlength=count * n).reshape(count, n)
        # one gemv per slate, the call ``mass @ dist`` makes
        costs += np.matmul(space.mass[rows], dist)
    return scores, costs, scores.argmax(axis=1), costs.argmin(axis=1)


def brute_force_outcome(space: MetricSpace, slate, vector: ScoringVector) -> ElectionOutcome:
    """Naive reference election, used only to cross-check ``run_election``."""
    slate = [int(c) for c in slate]
    n = len(slate)
    if vector.n != n:
        raise ValueError(f"scoring vector is for n={vector.n}, slate has {n}")
    zero = Fraction(0) if space.exact else 0.0
    scores = [zero] * n
    costs = [zero] * n
    for omega in range(space.npoints):
        dists = [space.distance(omega, slate[i]) for i in range(n)]
        # selection "sort" by (distance, index), written out longhand
        remaining = list(range(n))
        order = []
        while remaining:
            best = remaining[0]
            for i in remaining[1:]:
                if dists[i] < dists[best]:
                    best = i
            remaining.remove(best)
            order.append(best)
        m = space.mass_exact[omega] if space.exact else float(space.mass[omega])
        for pos in range(n):
            scores[order[pos]] = scores[order[pos]] + m * vector.scores[pos]
        for i in range(n):
            costs[i] = costs[i] + m * dists[i]
    winner = 0
    for i in range(1, n):
        if scores[i] > scores[winner]:
            winner = i
    optimum = 0
    for i in range(1, n):
        if costs[i] < costs[optimum]:
            optimum = i
    return ElectionOutcome(
        scores=tuple(scores),
        winner=winner,
        optimum=optimum,
        winner_cost=costs[winner],
        optimum_cost=costs[optimum],
        distortion=_distortion(costs[winner], costs[optimum]),
    )


@dataclass(frozen=True)
class OracleResult:
    trials: int
    matches: int
    mismatches: tuple  # (trial, description)

    @property
    def ok(self) -> bool:
        return self.matches == self.trials


_ORACLE_FAMILIES = ("plurality", "veto", "kapproval:2", "borda", "dowdall", "gapproval:1/2")


def oracle_sweep(trials: int, seed: int, max_points: int = 8, max_candidates: int = 5) -> OracleResult:
    """Compare run_election against brute_force_outcome on seeded random
    exact instances (winner, optimum, and all scores must match exactly)."""
    matches = 0
    mismatches = []
    for t in range(trials):
        rng = np.random.default_rng([101, seed, t])
        npts = int(rng.integers(2, max_points + 1))
        n = int(rng.integers(1, max_candidates + 1))
        space = random_space(int(rng.integers(0, 2**31)), npts, "iid-unit-interval-distances")
        slate = rng.integers(0, npts, size=n).tolist()
        family = parse_family(_ORACLE_FAMILIES[t % len(_ORACLE_FAMILIES)])
        vector = family.score_vector(n)
        fast = run_election(space, slate, vector)
        naive = brute_force_outcome(space, slate, vector)
        problems = []
        if fast.winner != naive.winner:
            problems.append(f"winner {fast.winner} != {naive.winner}")
        if fast.optimum != naive.optimum:
            problems.append(f"optimum {fast.optimum} != {naive.optimum}")
        if fast.scores != naive.scores:
            problems.append("scores differ")
        if fast.distortion != naive.distortion:
            problems.append("distortion differs")
        if problems:
            mismatches.append((t, "; ".join(problems)))
        else:
            matches += 1
    return OracleResult(trials, matches, tuple(mismatches))
