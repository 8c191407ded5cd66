"""Run one positional election on a metric space.

Voters at each location rank candidates by distance (ties broken by candidate
index, identically for all voters at a location), candidates collect
mass-weighted positional scores, and the outcome records winner, in-slate
optimum, and distortion.  One kernel elects on float64 arrays or, on exact
spaces, on exact Python ints: masses, distances and scores times the LCMs of
their denominators, which are divided out into Fractions at the end.

The kernel streams the locations in passes: each pass is looked up and
ranked, and its scores (and a derived space's costs) join the election's
sums in location order, the order ``brute_force_outcome`` sums in, so
passes change no output bit and an election holds a few MiB.  A pass's
ranking, sort keys and weights are views of grow-only buffers that each
thread keeps (``_buffer``, a few MiB), valid until the next pass: small
elections fault in no new pages.  A pass whose masses are one float64
takes its weights from one tile per mass value and election instead.

Every ranking is the stable argsort's, bit for bit.  Plurality needs only
the first-index argmin.  Stored spaces read no distance: their elections
sort exact keys, a distance's dense rank (``MetricSpace.ranks``) above the
candidate index.  A derived space's float rows of 6 to 4096 candidates
sort packed keys too (a distance's bits with the candidate index in its low
bits, ``_key_rank``).  Only the rows where two locations' keys tie, or that
hold a NaN or an infinity, are checked; a duplicate candidate ties its
twin bit for bit and needs no check.  The rows that fail it, rows with a
sign bit set (a negative distance or -0.0), and every narrower or wider
row take the stable argsort.  A derived space's pass then sums its costs
with one ``np.einsum``, the partial sums written into its first row.

``brute_force_outcome`` is a deliberately naive second implementation kept
free of any shared ranking/scoring code; it exists so the fast path can be
checked against it on thousands of randomized instances.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .scoring import ScoringVector, parse_family
from .spaces import MetricSpace, _int_dtype, _scaled_integers, random_space

#: location x slate x candidate elements per pass and per batch of slates
#: (at least one location and one slate): it sizes every kernel buffer, so
#: a pass stays in cache, and changes no output bit (at 2^15 the
#: two-cluster elections ran 5-8% slower)
_PASS_ELEMENTS = 1 << 17
#: candidates per slate whose float distances (derived spaces only) are
#: ranked by packed keys (``_key_rank``); fewer or more take the stable
#: argsort.  The crossover, ranking every pass of a two-cluster election:
#: keys win from n = 6 (at N = 64^3 13.5 against 17.6 ms, at N = 4096 1.41
#: against 1.50 ms) and lose at n = 5 (17.3 against 15.8, 1.63 against
#: 1.45 ms).  Above 2^12 too many distance bits would be cleared
_KEY_MIN_N = 6
_KEY_MAX_N = 1 << 12
#: +inf's float64 bits: a row whose largest key reaches them holds +inf, a
#: NaN (one whose payload sits in the cleared bits keys like +inf) or a
#: distance with its sign bit set (a negative one or -0.0)
_INF_BITS = np.float64(np.inf).view(np.uint64)
#: derived-distance costs summed at once; all P take O(P^2) distances
_DERIVED_MEDIAN_CAP = 4096

INFINITE = math.inf
#: this thread's kernel buffers: one flat array per (role, dtype), of at
#: most max(_PASS_ELEMENTS, n) elements
_WORKSPACE = threading.local()


def _buffer(role: str, shape, dtype) -> np.ndarray:
    """A C-contiguous ``shape`` prefix view of this thread's ``role`` buffer
    of ``dtype``, which grows (never shrinks) to fit and is overwritten by
    the next call for the same role."""
    key, size = (role, np.dtype(dtype)), math.prod(shape)
    flat = vars(_WORKSPACE).get(key)
    if flat is None or flat.size < size:
        flat = vars(_WORKSPACE)[key] = np.empty(size, key[1])
    return flat[:size].reshape(shape)


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


def _rank(dist: np.ndarray, order: np.ndarray, locations: np.ndarray) -> None:
    """Fill ``order`` (int64, C-contiguous, the shape of ``dist``) with each
    row of ``dist`` ranked along the last axis by (distance, candidate
    index), as the stable argsort ranks it; an ``order`` one column wide
    gets the top choice alone, the first-index argmin.  Integer ``dist``
    holds dense ranks: rank << b | index keys are unique and exact.
    ``locations`` (see ``_key_rank``) names the candidates of float rows."""
    if order.shape[-1] == 1:
        np.argmin(dist, axis=-1, keepdims=True, out=order)
        return
    n = dist.shape[-1]
    if dist.dtype.kind == "i":
        bits = (n - 1).bit_length()
        dtype = _int_dtype(int(dist.max()) << bits | (n - 1))
        keys = np.left_shift(dist, bits, out=_buffer("keys", dist.shape, dtype), dtype=dtype)
        keys |= np.arange(n, dtype=keys.dtype)
        keys.sort(axis=-1)
        np.bitwise_and(keys, (1 << bits) - 1, out=order)
        return
    dist, order = dist.reshape(-1, n), order.reshape(-1, n)
    rows = slice(None)
    if dist.dtype == np.float64 and _KEY_MIN_N <= n <= _KEY_MAX_N:
        rows = _key_rank(dist, order, locations)
    order[rows] = np.argsort(dist[rows], axis=-1, kind="stable")


def _key_rank(dist: np.ndarray, order: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Rank the rows of a float64 ``dist`` (R, n) into ``order`` by one
    integer sort of packed keys, and return the rows whose order it cannot
    vouch for, for the stable argsort to rank.

    A key is a distance's float64 bits as uint64 with the low b bits
    replaced by the candidate index (2^b >= n), built in two passes, so
    keys are unique and an unstable sort puts them in one order, with
    equal distances by index.  Non-negative floats sort as their bits do,
    so that order is the stable argsort's unless two distances differ only
    in the cleared bits (their keys then sit next to each other with equal
    high bits) or the row holds a NaN, +inf or a sign bit (its largest key
    reaches +inf's bits).  Those rows are checked: read in key order, their
    distances must be non-decreasing, which with the index bits breaking
    every tie proves the order.  The rows that fail, and every row with a
    sign bit, whose -0.0 keys after the +0.0 it equals, are returned.
    ``locations``, a (T, n) array for rows that cycle through T slates,
    labels each slate's candidates: two with one label have bit-equal
    distances in every row (a derived space's duplicate candidates), so
    their tie needs no check.
    """
    n = dist.shape[1]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = np.bitwise_and(dist.view(np.uint64), ~low, out=order.view(np.uint64))
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    # neighbours with equal high bits, found over the flat keys
    flat = keys.ravel()
    high = np.bitwise_xor(flat[1:], flat[:-1], out=_buffer("high", (flat.size - 1,), np.uint64))
    tied = np.less_equal(high, low, out=_buffer("tied", high.shape, bool))
    tied[n - 1 :: n] = False  # the pairs that span two rows
    flagged = np.flatnonzero(keys[:, -1] >= _INF_BITS)
    keys &= low
    at = np.flatnonzero(tied)
    if at.size:  # most passes hold no tie
        slate = at // n % len(locations) if len(locations) > 1 else 0
        index = order.ravel()  # the candidates at flat positions at and at + 1
        labels = locations.astype(_int_dtype(int(locations.max())))  # narrow gathers stay small
        at = at[labels[slate, index[at]] != labels[slate, index[1:][at]]]
    rows = np.union1d(at // n, flagged)
    checked = dist[rows]
    ranked = np.take_along_axis(checked, order[rows], axis=1)
    # a -0.0 keys after the +0.0 that it equals: only the argsort ranks it
    return rows[np.signbit(checked).any(axis=1) | ~(ranked[:, 1:] >= ranked[:, :-1]).all(axis=1)]


def _kernel_space(space: MetricSpace, exact: bool):
    """(lookup, masses, location costs) for the kernel: ``lookup(lo, hi, cols)``
    gives locations lo..hi-1 against candidate locations ``cols``, a stored
    space's dense ranks (with float, or exact ``scaled``, masses and costs),
    gathered into this thread's ``ranks`` buffer, or a derived space's
    float64 distances, which have no costs.  ``cols`` must be in range."""
    if space.matrix is None:
        def lookup(lo, hi, cols):  # a C-ordered array the kernel owns: _location_sum writes it
            return np.require(space.dist_block(np.arange(lo, hi)[:, None], cols[None]), np.float64, "CW")
        return lookup, space.mass, None
    ranks = space.ranks
    mass, costs = (space.scaled[0], space.scaled_costs) if exact else (space.mass, space.costs)

    def lookup(lo, hi, cols):
        return ranks[lo:hi].take(cols, 1, _buffer("ranks", (hi - lo, cols.size), ranks.dtype), "clip")
    return lookup, mass, costs


def _batch_step(npoints, n):
    """Slates per batch: as many as ``_PASS_ELEMENTS`` holds for all
    ``npoints`` locations and ``n`` candidates each, at least one."""
    return max(1, _PASS_ELEMENTS // (npoints * n))


def _ranked_passes(lookup, npoints: int, slates: np.ndarray, top_only: bool = False):
    """Yield (rows, dist, order) per pass over all ``npoints`` locations for
    a (T, n) stack of slates: dist[i, t] holds ``lookup``'s distances (or
    ranks) from location rows.start + i to slate t's candidates, and
    order[i, t] ranks them by (distance, candidate index), or is only its
    first column when ``top_only``.  A pass holds at most ``_PASS_ELEMENTS``
    elements (at least one location); order is a view of a buffer the next
    pass overwrites.  The slates label their candidates' locations for
    ``_key_rank``; an entry outside 0..npoints-1 raises IndexError."""
    count, n = slates.shape
    cols = slates.ravel()
    if cols.min() < 0 or cols.max() >= npoints:  # every lookup takes them unchecked
        raise IndexError(f"slate entries must be point indices below {npoints}")
    step = min(max(1, _PASS_ELEMENTS // slates.size), npoints)
    for lo in range(0, npoints, step):
        hi = min(lo + step, npoints)
        dist = lookup(lo, hi, cols).reshape(hi - lo, count, n)
        order = _buffer("order", (hi - lo, count, 1 if top_only else n), np.int64)
        _rank(dist, order, slates)
        yield slice(lo, hi), dist, order


def rankings(space: MetricSpace, slate: Sequence[int]) -> np.ndarray:
    """Per-location rankings: row omega lists candidate indices by
    (distance, candidate index) ascending."""
    slate = _checked_slate(space, slate)
    table = np.empty((space.npoints, slate.size), dtype=np.int64)
    lookup, _, _ = _kernel_space(space, space.exact)
    for rows, _, order in _ranked_passes(lookup, space.npoints, slate[None]):
        table[rows] = order[:, 0]
    return table


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
    scores, score_scale = _scaled_integers(vector.scores) if exact else (vector.float_scores, 1)
    scores, costs, winners, optima = _elect(*_kernel_space(space, exact), scores, slate[None])
    scores, costs = scores[0].tolist(), costs[0].tolist()
    if exact:  # divide the scales out
        _, mass_scale, _, dist_scale = space.scaled
        scores = [Fraction(s, mass_scale * score_scale) for s in scores]
        costs = [Fraction(c, mass_scale * dist_scale) for c in costs]
    return _outcome(scores, costs, int(winners[0]), int(optima[0]))


def _elect(lookup, mass, costs, scores, slates):
    """Elections of a (T, n) stack of slates ranked by ``lookup``, on ``mass``
    and ``scores`` both float64 or both exact Python ints (dtype object):
    scores and costs (T, n), winners and optima (T,).  A candidate's cost is
    its location's entry of ``costs``, or, when that is None (a derived
    space), its distances summed here in the order of its score's terms."""
    count, n = slates.shape
    dtype = mass.dtype
    # scores, and a derived space's costs, summed from zero
    totals = np.zeros((1 if costs is not None else 2, count * n), dtype)
    # a vector that scores only the top choice (plurality) needs column 0 of
    # the ranking alone: the dropped terms are +0.0, so every bit is kept
    width = n if (scores[1:] != 0).any() else 1
    # slate t's candidates are bins t*n .. t*n + n - 1, and a pass is laid
    # out (location, slate, candidate): each bin sums in location order
    offsets = np.arange(0, count * n, n)[:, None]
    tile = tile_mass = None  # weights of passes whose masses are one float64, and that mass's bytes
    for rows, dist, order in _ranked_passes(lookup, mass.size, slates, width == 1):
        if count > 1:  # a lone slate's offset is 0
            order += offsets
        # the same mass * score weights for every slate, laid out like order
        m = mass[rows]
        if dtype == np.float64 and m[0] == m[-1] and (m.view(np.uint64) == m[:1].view(np.uint64)).all():
            # one mass: a prefix of a tile built once per value (no workspace
            # view); every pass but the last is full, so a tile never grows
            if tile_mass != m[:1].tobytes():
                tile, tile_mass = np.empty(order.shape), m[:1].tobytes()
                np.multiply(m[:, None, None], scores[:width], out=tile)
            weights = tile[: len(m)]
        else:
            weights = np.multiply(m[:, None, None], scores[:width], out=_buffer("weights", order.shape, dtype))
        np.add.at(totals[0], order.ravel(), weights.ravel())
        if costs is None:
            totals[1] = _location_sum(totals[1], m, dist.reshape(len(dist), -1))
    totals = totals.reshape(-1, count, n)
    costs = totals[1] if costs is None else costs[slates]
    return totals[0], costs, totals[0].argmax(axis=1), costs.argmin(axis=1)


def _location_sum(partial, mass, dist):
    """``partial`` plus the mass[i] * dist[i, j] of each column j, summed in row
    order: ``partial`` joins row 0's terms, written into row 0 of ``dist`` (a
    C-ordered pass the kernel owns), which then takes a mass of 1.0, and
    ``np.einsum`` adds the rows one by one from +0.0, as ``MetricSpace.costs``
    sums (no BLAS; the election's sums start from +0.0, so none is -0.0).
    A lone column takes ``cumsum``: einsum sums one column unrolled."""
    mass = mass.copy()
    dist[0] *= mass[0]
    dist[0] += partial
    mass[0] = 1.0
    if dist.shape[1] == 1:
        return np.cumsum(mass * dist[:, 0])[-1:]
    return np.einsum("i,ij->j", mass, dist)


def _location_costs(space: MetricSpace, locations) -> np.ndarray:
    """The social costs of ``locations`` in the kernel's units (scaled ints on
    exact spaces, see ``_kernel_space``), summed as elections sum them: on a
    derived space as one-candidate elections, at most ``_DERIVED_MEDIAN_CAP``."""
    locations = np.asarray(locations, dtype=np.int64)
    lookup, mass, costs = _kernel_space(space, space.exact)
    if costs is not None:
        return costs[locations]
    if locations.size > _DERIVED_MEDIAN_CAP:
        raise ValueError(f"derived-distance costs are capped at {_DERIVED_MEDIAN_CAP} locations")
    step = _batch_step(space.npoints, 1)
    return np.concatenate([_elect(lookup, mass, None, np.ones(1), locations[lo : lo + step, None])[1][:, 0]
                           for lo in range(0, locations.size, step)])


def social_cost(space: MetricSpace, location: int):
    """Mass-weighted sum of distances from all points to ``location``: a
    Fraction on exact spaces, else a float."""
    if not 0 <= location < space.npoints:
        raise IndexError(f"location {location} out of range for P={space.npoints}")
    cost = _location_costs(space, [location])[0]
    if space.exact:
        _, mass_scale, _, scale = space.scaled
        return Fraction(cost, mass_scale * scale)
    return float(cost)


def one_median(space: MetricSpace) -> int:
    """Index minimizing social cost; ties broken by lowest index."""
    return int(np.argmin(_location_costs(space, range(space.npoints))))


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
    return _outcome(scores, costs, winner, optimum)


@dataclass(frozen=True)
class OracleResult:
    trials: int
    matches: int
    mismatches: tuple  # (trial, description)

    @property
    def ok(self) -> bool:
        return self.matches == self.trials


_ORACLE_FAMILIES = ("plurality", "veto", "kapproval:2", "borda", "dowdall", "gapproval:1/2")
_ORACLE_MAX_POINTS = 8
_ORACLE_MAX_CANDIDATES = 5


def oracle_sweep(trials: int, seed: int) -> OracleResult:
    """Compare run_election against brute_force_outcome on seeded random
    exact instances (winner, optimum, and all scores must match exactly)."""
    families = [parse_family(spec) for spec in _ORACLE_FAMILIES]  # one score-vector memo each
    matches = 0
    mismatches = []
    for t in range(trials):
        rng = np.random.default_rng([101, seed, t])
        npts = int(rng.integers(2, _ORACLE_MAX_POINTS + 1))
        n = int(rng.integers(1, _ORACLE_MAX_CANDIDATES + 1))
        space = random_space(int(rng.integers(0, 2**31)), npts, "iid-unit-interval-distances")
        slate = rng.integers(0, npts, size=n).tolist()
        vector = families[t % len(families)].score_vector(n)
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
