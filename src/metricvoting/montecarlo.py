"""Seeded i.i.d. candidate sampling and expected-distortion estimation.

Each trial draws its own counter-based RNG stream keyed by (seed, trial
index), so a run is a pure function of its inputs, trials can execute in any
order on any number of workers, and two runs over disjoint trial ranges merge
into exactly the run over the union.  Per-trial outcomes are kept (one float
per trial), and every summary statistic is a canonical reduction over the
trial-ordered array, which is what makes the merge byte-identical.
"""

from __future__ import annotations

import itertools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import elections
from ._hash import trial_uniforms
from .elections import _distortion, _one_blas_thread, _run_float, run_election
from .scoring import RuleFamily
from .spaces import MetricSpace, one_median

_ENUMERATION_CAP = 1_000_000
#: trials per batch times locations times candidates: batches of trials are
#: drawn and elected together up to this many elements, so the temporaries
#: stay cache-sized; it changes no output bit
_BATCH_ELEMENTS = 1 << 15


def _slates(space: MetricSpace, n: int, seed: int, start: int, count: int) -> np.ndarray:
    """(count, n) slates of trials start..start+count-1: n i.i.d. draws each
    from the space's mass distribution (inverse CDF)."""
    idx = np.searchsorted(space.cum_mass, trial_uniforms(seed, start, count, n), side="right")
    return np.minimum(idx, space.npoints - 1).astype(np.int64)


def sample_candidates(space: MetricSpace, n: int, seed: int, trial_index: int) -> np.ndarray:
    """n i.i.d. draws from the space's mass distribution (inverse CDF)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _slates(space, n, seed, trial_index, 1)[0]


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate of expected distortion.

    Trials whose in-slate optimum has zero cost but whose winner does not are
    flagged infinite: they are counted in ``infinite_flag_count`` and
    excluded from the mean, never averaged.  ``winner_distance_histogram``
    maps each distinct distance r from the 1-median to the empirical
    probability that the winner lands at distance >= r.
    """

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


def _summarize(distortions, winner_distances, knots, trial_start) -> Estimate:
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
    batches of up to ``_BATCH_ELEMENTS`` (trial, location, candidate)
    elements; spaces of more than ``elections._SUB_ROWS`` points take one
    trial per batch."""
    small = space.npoints <= elections._SUB_ROWS
    step = max(1, _BATCH_ELEMENTS // (space.npoints * n)) if small else 1
    for lo in range(start, start + count, step):
        hi = min(lo + step, start + count)
        yield range(lo, hi), _slates(space, n, seed, lo, hi - lo)


def _trials(space, vector, seed, start, count):
    """Yield (trials, slates, winners, winner_costs, optimum_costs,
    distortions) per batch of trials start..start+count-1: each trial draws
    its keyed slate and runs one float election on it; ``winners`` holds
    the winners' locations."""
    for trials, slates in _slate_batches(space, vector.n, seed, start, count):
        _, costs, winners, optima = _run_float(space, slates, vector)
        rows = np.arange(len(trials))
        wcost, ocost = costs[rows, winners], costs[rows, optima]
        yield trials, slates, slates[rows, winners], wcost, ocost, _distortion(wcost, ocost)


def _fan_out(fn, args, start, count, jobs):
    """Run ``fn(*args, s, c)`` on one BLAS thread over contiguous trial ranges
    (s, c) covering [start, start + count) and return the parts in trial
    order; ranges go to ``jobs`` worker processes (one per core, where a
    second BLAS thread would spin) unless jobs <= 1 or under 4 trials."""
    if jobs <= 1 or count < 4:
        return [_one_blas_thread(fn, *args, start, count)]
    step = -(-count // jobs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_one_blas_thread, fn, *args, start + off, min(step, count - off))
            for off in range(0, count, step)
        ]
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
    return _summarize(dstr, wdist, np.unique(dist_from_o), trial_start)


def merge_estimates(a: Estimate, b: Estimate) -> Estimate:
    """Combine runs over adjoining trial ranges; associative by construction."""
    first, second = (a, b) if a.trial_start <= b.trial_start else (b, a)
    if first.trial_start + first.trials != second.trial_start:
        raise ValueError("estimates overlap or leave a gap in trial indices")
    knots = [r for r, _ in a.winner_distance_histogram]
    return _summarize(
        np.concatenate([first.distortions, second.distortions]),
        np.concatenate([first.winner_distances, second.winner_distances]),
        knots,
        first.trial_start,
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
    vector = family.score_vector(n)
    masses = space.mass_exact if space.exact else space.mass
    zero = Fraction(0) if space.exact else 0.0
    total = zero
    weight = zero
    infinite_mass = zero
    for slate in itertools.product(range(npts), repeat=n):
        prob = masses[slate[0]]
        for loc in slate[1:]:
            prob = prob * masses[loc]
        outcome = run_election(space, slate, vector)
        if outcome.infinite:
            infinite_mass = infinite_mass + prob
        else:
            total = total + prob * outcome.distortion
            weight = weight + prob
    if infinite_mass > 0:
        warnings.warn(
            f"excluding probability mass {float(infinite_mass):g} of zero-cost-optimum slates"
        )
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


def sufficiency_probe(
    space: MetricSpace,
    family: RuleFamily,
    n: int,
    trials: int,
    seed: int,
    z,
) -> SufficiencyCheck:
    """Record tail events E_r and winner escapes over a grid of radii."""
    z = checked_probe_z(z)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dist_from_o = space.distances_from(one_median(space))
    _, wdist = _trial_batch(space, family.score_vector(n), seed, dist_from_o, 0, trials)
    return _probe_counts(space, n, seed, z, wdist)


def _probe_counts(space: MetricSpace, n: int, seed: int, z: float, winner_distances) -> SufficiencyCheck:
    """The probe over trials 0..T-1, given the distance of each trial's
    winner from the 1-median (an estimate's ``winner_distances``); the tail
    events need only the redrawn slates, no election."""
    median_index = one_median(space)
    dist_from_o = space.distances_from(median_index)
    knots = np.unique(dist_from_o)
    ball_mass = np.array([float(space.mass[dist_from_o <= r].sum()) for r in knots])

    tilde_y = (1.0 - 1.0 / math.e) + z / math.e
    at_least = np.nonzero(ball_mass >= tilde_y - 1e-12)[0]
    r_tilde = float(knots[at_least[0]])
    grid = knots[knots >= r_tilde]
    v_of_r = 1.0 - ball_mass[knots >= r_tilde]

    threshold = (1.0 - z) * n
    events = np.zeros(grid.size, dtype=np.int64)
    escapes = np.zeros(grid.size, dtype=np.int64)
    violations = np.zeros(grid.size, dtype=np.int64)
    for trials, slates in _slate_batches(space, n, seed, 0, winner_distances.size):
        outside = (dist_from_o[slates][:, :, None] > grid).sum(axis=1)
        event = outside > threshold
        escape = winner_distances[trials.start : trials.stop, None] > 3.0 * grid
        events += event.sum(axis=0)
        escapes += escape.sum(axis=0)
        violations += (~event & escape).sum(axis=0)
    return SufficiencyCheck(
        z=z,
        tilde_y=tilde_y,
        r_tilde=r_tilde,
        median_index=int(median_index),
        trials=int(winner_distances.size),
        radii=tuple(float(r) for r in grid),
        outside_mass_at=tuple(float(v) for v in v_of_r),
        event_counts=tuple(int(c) for c in events),
        winner_outside_counts=tuple(int(c) for c in escapes),
        violation_counts=tuple(int(c) for c in violations),
    )
