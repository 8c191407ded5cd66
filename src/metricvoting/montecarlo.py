"""Seeded i.i.d. candidate sampling and expected-distortion estimation.

Each trial draws its own counter-based RNG stream keyed by (seed, trial
index), so a run is a pure function of its inputs, trials can execute in any
order on any number of workers, and two runs over disjoint trial ranges merge
into exactly the run over the union.  Per-trial outcomes are kept (one float
per trial), and every summary statistic is a canonical reduction over the
trial-ordered array, which is what makes the merge byte-identical.

Draws invert the mass CDF by the space's guide table: u's bucket floor(u K)
is exact for K a power of two, and a bucket that no cumulative mass splits
fixes the count of ``cum_mass <= u``, so only draws in split buckets search
and every draw equals the clamped ``searchsorted``.  ``sufficiency_probe``
counts the tail events of the very slates it elects, drawn once.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._hash import trial_uniforms
from .elections import INFINITE, _batch_step, _distortion, _elect, _kernel_space, _location_costs, one_median
from .scoring import RuleFamily
from .spaces import MetricSpace, _scaled_integers

_ENUMERATION_CAP = 1_000_000


def _inverse_cdf(space: MetricSpace, u: np.ndarray) -> np.ndarray:
    """Locations of uniforms ``u`` in [0, 1): ``searchsorted(cum_mass, u,
    side="right")`` clamped to P - 1, read from ``space.guide`` when it can."""
    guide = space.guide
    idx = guide[(u * guide.size).astype(np.intp)]  # exact: K is a power of two
    split = idx < 0
    idx[split] = np.searchsorted(space.cum_mass, u[split], side="right")
    return np.minimum(idx, space.npoints - 1)


def _slates(space: MetricSpace, n: int, seed: int, start: int, count: int) -> np.ndarray:
    """(count, n) slates of trials start..start+count-1: n i.i.d. draws each
    from the space's mass distribution (inverse CDF)."""
    return _inverse_cdf(space, trial_uniforms(seed, start, count, n))


def sample_candidates(space: MetricSpace, n: int, seed: int, trial_index: int) -> np.ndarray:
    """n i.i.d. draws from the space's mass distribution (inverse CDF)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _slates(space, n, seed, trial_index, 1)[0]


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate of expected distortion.

    ``family_spec``, ``n`` and ``seed`` are those of its elections.
    Trials whose in-slate optimum has zero cost but whose winner does not are
    flagged infinite: they are counted in ``infinite_flag_count`` and
    excluded from the mean, never averaged.  ``winner_distance_histogram``
    maps each distinct distance r from the 1-median to the empirical
    probability that the winner lands at distance >= r.
    """

    family_spec: str
    n: int
    seed: int
    trials: int
    trial_start: int
    mean: float
    stderr: float
    ci95_low: float
    ci95_high: float
    max_observed: float
    infinite_flag_count: int
    winner_distance_histogram: tuple
    distortions: np.ndarray = field(compare=False, repr=False, default=None)
    winner_distances: np.ndarray = field(compare=False, repr=False, default=None)


def _summarize(distortions, winner_distances, knots, n, seed, trial_start, family_spec) -> Estimate:
    finite = distortions[np.isfinite(distortions)]
    inf_count = int(distortions.size - finite.size)
    if finite.size:
        mean = float(np.mean(finite))
        std = float(np.std(finite, ddof=1)) if finite.size > 1 else 0.0
        stderr = std / math.sqrt(finite.size)
        max_obs = float(finite.max())
    else:
        mean = stderr = max_obs = math.nan
    ranked = np.sort(winner_distances)
    at_least = ranked.size - np.searchsorted(ranked, knots, side="left")
    hist = tuple((float(r), float(c / ranked.size)) for r, c in zip(knots, at_least))
    return Estimate(
        family_spec=family_spec,
        n=n,
        seed=seed,
        trials=int(distortions.size),
        trial_start=trial_start,
        mean=mean,
        stderr=stderr,
        ci95_low=mean - 1.96 * stderr,
        ci95_high=mean + 1.96 * stderr,
        max_observed=max_obs,
        infinite_flag_count=inf_count,
        winner_distance_histogram=hist,
        distortions=distortions,
        winner_distances=winner_distances,
    )


def _slate_batches(space, n, seed, start, count):
    """Yield (trial indices, slates) over trials start..start+count-1 in
    batches of ``_batch_step`` trials."""
    step = _batch_step(space.npoints, n)
    for lo in range(start, start + count, step):
        hi = min(lo + step, start + count)
        yield range(lo, hi), _slates(space, n, seed, lo, hi - lo)


def _trials(space, vector, seed, start, count):
    """Yield (trials, slates, winners, winner_costs, optimum_costs,
    distortions) per batch of trials start..start+count-1: each trial draws
    its keyed slate and runs one float election on it; ``winners`` holds
    the winners' locations."""
    for trials, slates in _slate_batches(space, vector.n, seed, start, count):
        _, costs, winners, optima = _elect(*_kernel_space(space, False), vector.float_scores, slates)
        rows = np.arange(len(trials))
        wcost, ocost = costs[rows, winners], costs[rows, optima]
        yield trials, slates, slates[rows, winners], wcost, ocost, _distortion(wcost, ocost)


def _fan_out(fn, args, start, count, jobs):
    """Run ``fn(*args, s, c)`` over contiguous trial ranges (s, c) covering
    [start, start + count) and return the parts in trial order; with jobs
    capped at the core count, ranges go to one worker process each unless
    jobs <= 1 or under 4 trials."""
    if jobs > 1:
        jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or count < 4:
        return [fn(*args, start, count)]
    step = -(-count // jobs)
    offsets = range(0, count, step)
    with ProcessPoolExecutor(max_workers=len(offsets)) as pool:
        futures = [pool.submit(fn, *args, start + off, min(step, count - off)) for off in offsets]
        return [f.result() for f in futures]


def _trial_batch(space, vector, seed, dist_from_o, start, count):
    parts = [(d, dist_from_o[w]) for _, _, w, _, _, d in _trials(space, vector, seed, start, count)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def estimate_distortion(
    space: MetricSpace,
    family: RuleFamily,
    n: int,
    trials: int,
    seed: int,
    trial_start: int = 0,
    jobs: int = 1,
) -> Estimate:
    """Estimate expected distortion over ``trials`` independent elections."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    vector = family.score_vector(n)
    dist_from_o = space.distances_from(one_median(space))
    parts = _fan_out(_trial_batch, (space, vector, seed, dist_from_o), trial_start, trials, jobs)
    dstr = np.concatenate([p[0] for p in parts])
    wdist = np.concatenate([p[1] for p in parts])
    return _summarize(dstr, wdist, np.unique(dist_from_o), n, seed, trial_start, family.spec)


def merge_estimates(a: Estimate, b: Estimate) -> Estimate:
    """Combine runs over adjoining trial ranges of one family, n and seed;
    associative by construction."""
    if (a.family_spec, a.n, a.seed) != (b.family_spec, b.n, b.seed):
        raise ValueError("estimates of different n or seed or rule family cannot be merged")
    first, second = (a, b) if a.trial_start <= b.trial_start else (b, a)
    if first.trial_start + first.trials != second.trial_start:
        raise ValueError("estimates overlap or leave a gap in trial indices")
    knots = [r for r, _ in a.winner_distance_histogram]
    return _summarize(
        np.concatenate([first.distortions, second.distortions]),
        np.concatenate([first.winner_distances, second.winner_distances]),
        knots,
        a.n,
        a.seed,
        first.trial_start,
        a.family_spec,
    )


def exact_expected_distortion(space: MetricSpace, family: RuleFamily, n: int):
    """Expected distortion by exhaustive enumeration of ordered slates.

    Exact rational arithmetic on exact spaces.  Zero-cost-optimum slates (the
    infinite-distortion policy) are excluded from the average and reported
    via a warning, mirroring how the Monte Carlo estimator flags them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    npts = space.npoints
    if npts**n > _ENUMERATION_CAP:
        raise ValueError(f"P^n = {npts**n} exceeds enumeration cap {_ENUMERATION_CAP}")
    lookup, mass, _ = _kernel_space(space, space.exact)
    cost = _location_costs(space, range(npts))
    vector = family.score_vector(n)
    scores = _scaled_integers(vector.scores)[0] if space.exact else vector.float_scores
    # a slate's distortion depends only on the costs of its winner's and its
    # optimum's locations: sum the slate probabilities (times mass scale^n
    # on exact spaces) by winner location * P + optimum location
    pairs = {}
    step = _batch_step(npts, n)
    for lo in range(0, npts**n, step):
        slates = np.stack(np.unravel_index(np.arange(lo, min(lo + step, npts**n)), (npts,) * n), axis=1)
        _, _, winners, optima = _elect(lookup, mass, cost, scores, slates)
        rows = np.arange(len(slates))
        keys = slates[rows, winners] * npts + slates[rows, optima]
        for key, prob in zip(keys.tolist(), mass[slates].prod(axis=1).tolist()):
            pairs[key] = pairs.get(key, 0) + prob
    cost = [Fraction(c) for c in cost.tolist()] if space.exact else cost.tolist()
    total = weight = infinite_mass = 0
    for key, prob in pairs.items():
        distortion = _distortion(cost[key // npts], cost[key % npts])
        if distortion == INFINITE:
            infinite_mass += prob
        else:
            total += prob * distortion
            weight += prob
    if infinite_mass > 0:
        scale = space.scaled[1] ** n if space.exact else 1
        warnings.warn(f"excluding probability mass {infinite_mass / scale:g} of zero-cost-optimum slates")
    if weight == 0:
        raise ValueError("all slates have infinite distortion")
    return total / weight


@dataclass(frozen=True)
class SufficiencyCheck:
    """Empirical tail-event and winner-containment counts.

    For each grid radius r (the distinct distances from the 1-median at and
    beyond r_tilde), ``event_counts`` counts trials where more than (1-z)*n
    candidates fell outside the ball B(o, r), ``winner_outside_counts``
    counts winners outside B(o, 3r), and ``violation_counts`` counts trials
    where the tail event did NOT occur yet the winner still escaped
    B(o, 3r).  The point of the probe: escapes should only ever co-occur
    with the tail event, and the tail event itself should be rarer than
    e/(1-z) times the mass outside the radius.
    """

    z: float
    tilde_y: float
    r_tilde: float
    median_index: int
    trials: int
    radii: tuple
    outside_mass_at: tuple  # V(r) per radius
    event_counts: tuple
    winner_outside_counts: tuple
    violation_counts: tuple


def checked_probe_z(z) -> float:
    """The probe's z as a float; raises ValueError unless 1/2 < z < 1."""
    z = float(z)
    if not 0.5 < z < 1.0:
        raise ValueError("z must lie in (1/2, 1)")
    return z


def probe_tilde_y(space: MetricSpace, z: float) -> float:
    """The probe's ball mass tilde_y = 1 - 1/e + z/e at z; raises ValueError
    when the space's masses sum below it, as an unvalidated space's can, so
    that no ball around the 1-median holds it."""
    tilde_y = (1.0 - 1.0 / math.e) + z / math.e
    total = float(space.mass.sum())
    if total < tilde_y - 1e-12:
        raise ValueError(f"no ball around the 1-median holds mass {tilde_y:.6g}: the masses sum to {total:.6g}")
    return tilde_y


def sufficiency_probe(
    space: MetricSpace,
    family: RuleFamily,
    n: int,
    trials: int,
    seed: int,
    z,
) -> SufficiencyCheck:
    """Record tail events E_r and winner escapes over a grid of radii on the
    trials of ``estimate_distortion``, each slate drawn once."""
    z = checked_probe_z(z)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    vector = family.score_vector(n)
    median_index = one_median(space)
    dist_from_o = space.distances_from(median_index)
    batches = ((slates, dist_from_o[w]) for _, slates, w, _, _, _ in _trials(space, vector, seed, 0, trials))
    return _probe(space, median_index, dist_from_o, z, n, trials, batches)


def probe_estimate(space: MetricSpace, estimate: Estimate, z) -> SufficiencyCheck:
    """The sufficiency probe over the trials of ``estimate``: its winner
    distances give the escapes, and the tail events need only its slates,
    redrawn from its own n and seed, and no election."""
    z = checked_probe_z(z)
    start = estimate.trial_start
    batches = ((slates, estimate.winner_distances[trials.start - start : trials.stop - start])
               for trials, slates in _slate_batches(space, estimate.n, estimate.seed, start, estimate.trials))
    median_index = one_median(space)
    dist_from_o = space.distances_from(median_index)
    return _probe(space, median_index, dist_from_o, z, estimate.n, estimate.trials, batches)


def _probe(space, median_index, dist_from_o, z, n, trials, batches) -> SufficiencyCheck:
    """The probe's counts over ``trials`` trials of n candidates, given as
    batches of (slates, winner distances from the 1-median), where
    ``dist_from_o`` is the 1-median's row of distances."""
    knots = np.unique(dist_from_o)
    ball_mass = np.array([float(space.mass[dist_from_o <= r].sum()) for r in knots])

    tilde_y = probe_tilde_y(space, z)
    r_tilde = float(knots[np.nonzero(ball_mass >= tilde_y - 1e-12)[0][0]])
    grid = knots[knots >= r_tilde]
    v_of_r = 1.0 - ball_mass[knots >= r_tilde]

    threshold = (1.0 - z) * n
    events = np.zeros(grid.size, dtype=np.int64)
    escapes = np.zeros(grid.size, dtype=np.int64)
    violations = np.zeros(grid.size, dtype=np.int64)
    for slates, winner_distances in batches:
        outside = (dist_from_o[slates][:, :, None] > grid).sum(axis=1)
        event = outside > threshold
        escape = winner_distances[:, None] > 3.0 * grid
        events += event.sum(axis=0)
        escapes += escape.sum(axis=0)
        violations += (~event & escape).sum(axis=0)
    return SufficiencyCheck(
        z=z,
        tilde_y=tilde_y,
        r_tilde=r_tilde,
        median_index=int(median_index),
        trials=trials,
        radii=tuple(float(r) for r in grid),
        outside_mass_at=tuple(float(v) for v in v_of_r),
        event_counts=tuple(int(c) for c in events),
        winner_outside_counts=tuple(int(c) for c in escapes),
        violation_counts=tuple(int(c) for c in violations),
    )
