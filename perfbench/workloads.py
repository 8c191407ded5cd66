"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed (``setup``), runs one
unit of work per ``run_op`` call through the public functions of
``metricvoting``, and checks the outputs afterwards (``check``), outside the
timed region.  ``probe_inputs`` names the inputs the traced run feeds to each
layer probe in ``layers.py``: the workload's own inputs for the layers on its
path, and a shared small input for the layers it never reaches.

A ``span`` argument is a context-manager factory ``span(name, op)``; the
untraced loop passes one that records nothing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

from metricvoting import (
    DEFAULT_Y_GRID,
    brute_force_outcome,
    build_instance,
    check_event,
    condition_sides,
    estimate_distortion,
    exact_expected_distortion,
    one_median,
    oracle_sweep,
    parse_family,
    random_space,
    run_election,
    run_experiment,
    sample_candidates,
    scan,
    solve_parameters,
    sufficiency_probe,
)

FAMILY_SPECS = ("plurality", "veto", "kapproval:3", "gapproval:1/2", "borda", "dowdall")
BOX = "uniform-box-L2"
IID = "iid-unit-interval-distances"


def _seeds(seed: int, stream: int, count: int) -> list:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def _near_tie(scores) -> bool:
    top = sorted((float(s) for s in scores), reverse=True)[:2]
    return len(top) == 2 and top[0] - top[1] <= 1e-12 * abs(top[0])


@dataclass
class Checked:
    """Outcome of a workload's output checks."""

    failed: int = 0
    near_ties: int = 0


@dataclass
class ProbeInputs:
    """Inputs of every layer probe for one workload (see ``layers.probe``).

    ``build_space`` realises the space the workload's elections run on; the
    election probes elect ``slates`` slates of ``family`` at ``n`` on it,
    drawn with ``seed``, which also seeds the other probes.
    ``estimate`` is (space, family, n, trials), ``enumeration`` is
    (space, family, n), ``scan_n_max`` bounds the condition scans, and
    ``adversarial`` holds the (n_override, big_n_override, trials) of the
    two-cluster experiment probe.
    """

    seed: int
    build_space: Callable
    family: object
    n: int
    slates: int
    estimate: tuple
    enumeration: tuple
    scan_n_max: int
    adversarial: tuple


# Off-path layer inputs, shared by the workloads that never reach the layer:
# small enough that the probe adds about a second to a traced run.
def _small_estimate(seed):
    return (random_space(seed, 20, BOX), parse_family("plurality"), 8, 200)


def _small_enumeration(seed):
    return (random_space(seed, 5, IID), parse_family("borda"), 3)


SMALL_SCAN_N_MAX = 100
DESK_ADVERSARIAL = (16, 4096, 8)


# ---------------------------------------------------------------------------
# mc-small


@dataclass
class McState:
    seed: int
    space_seeds: list
    spaces: list
    medians: list
    families: list
    vectors: dict
    op_seeds: list


@dataclass(frozen=True)
class McResult:
    space_index: int
    family_index: int
    seed: int
    estimates: tuple  # (n, Estimate) for the cycled family, then Borda at n=64
    probe: object


class McSmall:
    """Thousands of ~0.1 ms Monte Carlo elections on 20-point stored spaces:
    per-call overhead dominates; no hashing and no fan-out."""

    name = "mc-small"
    POOL = 32
    TRIALS = 200
    CYCLE_N = (2, 4, 8)
    LARGE_N = 64
    PROBE_Z = 0.75
    CHECK_UNITS = 24

    def setup(self, seed: int) -> McState:
        space_seeds = _seeds(seed, 1, self.POOL)
        spaces = [random_space(s, 20, BOX) for s in space_seeds]
        families = [parse_family(spec) for spec in FAMILY_SPECS]
        vectors = {
            (spec, n): fam.score_vector(n)
            for spec, fam in zip(FAMILY_SPECS, families)
            for n in self.CYCLE_N + (self.LARGE_N,)
        }
        return McState(
            seed=seed,
            space_seeds=space_seeds,
            spaces=spaces,
            medians=[one_median(s) for s in spaces],
            families=families,
            vectors=vectors,
            op_seeds=_seeds(seed, 2, 4096),
        )

    def op_size(self, state, k: int) -> int:
        return self.TRIALS * (len(self.CYCLE_N) + 2)

    def run_op(self, state: McState, k: int, span) -> McResult:
        si, fi = k % self.POOL, k % len(FAMILY_SPECS)
        space, family = state.spaces[si], state.families[fi]
        seed = state.op_seeds[k % len(state.op_seeds)]
        borda = state.families[FAMILY_SPECS.index("borda")]
        estimates = []
        for n in self.CYCLE_N:
            with span("montecarlo.estimate_distortion", k):
                estimates.append((n, estimate_distortion(space, family, n, self.TRIALS, seed)))
        with span("montecarlo.estimate_distortion", k):
            estimates.append(
                (self.LARGE_N, estimate_distortion(space, borda, self.LARGE_N, self.TRIALS, seed))
            )
        # same seed as the Borda estimate: both draw the same slates
        with span("montecarlo.sufficiency_probe", k):
            probe = sufficiency_probe(space, borda, self.LARGE_N, self.TRIALS, seed, self.PROBE_Z)
        return McResult(si, fi, seed, tuple(estimates), probe)

    def check(self, state: McState, k: int, res: McResult) -> Checked:
        """Brute-force one sampled election per call of the first CHECK_UNITS
        units (they cover the whole space pool and every family)."""
        out = Checked()
        if k >= self.CHECK_UNITS:
            return out
        rng = np.random.default_rng([state.seed, 3, k])
        space = state.spaces[res.space_index]
        for i, (n, est) in enumerate(res.estimates):
            spec = FAMILY_SPECS[res.family_index] if i < len(self.CYCLE_N) else "borda"
            t = int(rng.integers(0, self.TRIALS))
            self._check_election(out, space, state.vectors[(spec, n)], n, res.seed, t,
                                 est.distortions[t])
        if not self._probe_consistent(res, state.medians[res.space_index]):
            out.failed += 1
        return out

    @staticmethod
    def _check_election(out, space, vector, n, seed, t, reported):
        slate = sample_candidates(space, n, seed, t)
        fast = run_election(space, slate, vector, exact=False)
        ref = brute_force_outcome(space, slate, vector)
        if (
            fast.winner == ref.winner
            and fast.optimum == ref.optimum
            and math.isclose(float(reported), float(ref.distortion), rel_tol=1e-9)
        ):
            return
        if _near_tie(ref.scores):
            out.near_ties += 1
        else:
            out.failed += 1

    def _probe_consistent(self, res: McResult, median: int) -> bool:
        probe = res.probe
        large = res.estimates[-1][1]
        counts = (probe.event_counts, probe.winner_outside_counts, probe.violation_counts)
        if probe.median_index != median or probe.trials != self.TRIALS:
            return False
        if any(len(c) != len(probe.radii) for c in counts + (probe.outside_mass_at,)):
            return False
        if any(not 0 <= v <= self.TRIALS for c in counts for v in c):
            return False
        # the probe elects the Borda estimate's slates, so winner escapes
        # must agree with that estimate's winner distances
        escapes = tuple(int(np.sum(large.winner_distances > 3.0 * r)) for r in probe.radii)
        return escapes == probe.winner_outside_counts

    def probe_inputs(self, state: McState) -> ProbeInputs:
        seed = state.op_seeds[0]
        borda = parse_family("borda")
        return ProbeInputs(
            seed=seed,
            build_space=lambda: random_space(state.space_seeds[0], 20, BOX),
            family=borda,
            n=self.LARGE_N,
            slates=self.TRIALS,
            estimate=(state.spaces[0], borda, self.LARGE_N, self.TRIALS),
            enumeration=_small_enumeration(seed),
            scan_n_max=SMALL_SCAN_N_MAX,
            adversarial=DESK_ADVERSARIAL,
        )


# ---------------------------------------------------------------------------
# exact-rational


@dataclass
class ExactState:
    seed: int
    families: list
    space_seeds: list
    spaces: list
    borda: object
    vector: object  # Borda at ENUM_N
    oracle_seeds: list


@dataclass(frozen=True)
class ExactResult:
    space_index: int
    reports: tuple  # ConditionReport per family, FAMILY_SPECS order
    expected: Fraction
    oracle: object


class ExactRational:
    """Fraction-only work (condition scans, slate enumeration, oracle sweep)
    that never reaches the float kernels."""

    name = "exact-rational"
    POOL = 8
    SCAN_N_MIN = 4
    SCAN_N_MAX = 1000
    ENUM_POINTS = 7
    ENUM_N = 4  # 7^4 = 2401 ordered slates
    ORACLE_TRIALS = 300
    CELL_CHECKS = 2  # per family and round
    ENUM_CHECKS = 2  # rounds whose enumeration is redone by brute force

    def setup(self, seed: int) -> ExactState:
        borda = parse_family("borda")
        space_seeds = _seeds(seed, 1, self.POOL)
        return ExactState(
            seed=seed,
            families=[parse_family(spec) for spec in FAMILY_SPECS],
            space_seeds=space_seeds,
            spaces=[random_space(s, self.ENUM_POINTS, IID) for s in space_seeds],
            borda=borda,
            vector=borda.score_vector(self.ENUM_N),
            oracle_seeds=_seeds(seed, 2, 4096),
        )

    def op_size(self, state, k: int) -> int:
        cells = len(FAMILY_SPECS) * len(DEFAULT_Y_GRID) * (self.SCAN_N_MAX - self.SCAN_N_MIN + 1)
        return cells + self.ENUM_POINTS**self.ENUM_N + self.ORACLE_TRIALS

    def run_op(self, state: ExactState, k: int, span) -> ExactResult:
        reports = []
        for family in state.families:
            with span("condition.scan", k):
                reports.append(scan(family, n_min=self.SCAN_N_MIN, n_max=self.SCAN_N_MAX))
        si = k % self.POOL
        with span("montecarlo.exact_expected_distortion", k):
            expected = exact_expected_distortion(state.spaces[si], state.borda, self.ENUM_N)
        with span("elections.oracle_sweep", k):
            oracle = oracle_sweep(self.ORACLE_TRIALS, state.oracle_seeds[k % len(state.oracle_seeds)])
        return ExactResult(si, tuple(reports), expected, oracle)

    def check(self, state: ExactState, k: int, res: ExactResult) -> Checked:
        out = Checked()
        rng = np.random.default_rng([state.seed, 3, k])
        for family, report in zip(state.families, res.reports):
            for idx in rng.integers(0, len(report.cells), size=self.CELL_CHECKS):
                cell = report.cells[int(idx)]
                if condition_sides(family.score_vector(cell.n), cell.y) != (cell.lhs, cell.rhs):
                    out.failed += 1
        if not res.oracle.ok:
            out.failed += res.oracle.trials - res.oracle.matches
        if k < self.ENUM_CHECKS:
            space = state.spaces[res.space_index]
            if _brute_expected_distortion(space, state.vector) != res.expected:
                out.failed += 1
        return out

    def probe_inputs(self, state: ExactState) -> ProbeInputs:
        return ProbeInputs(
            seed=state.oracle_seeds[0],
            build_space=lambda: random_space(state.space_seeds[0], self.ENUM_POINTS, IID),
            family=state.borda,
            n=self.ENUM_N,
            slates=200,
            estimate=_small_estimate(state.oracle_seeds[0]),
            enumeration=(state.spaces[0], state.borda, self.ENUM_N),
            scan_n_max=self.SCAN_N_MAX,
            adversarial=DESK_ADVERSARIAL,
        )


def _brute_expected_distortion(space, vector) -> Fraction:
    """Reference enumeration of every ordered slate through the naive election."""
    total = weight = Fraction(0)
    for slate in product(range(space.npoints), repeat=vector.n):
        prob = Fraction(1)
        for loc in slate:
            prob *= space.mass_exact[loc]
        outcome = brute_force_outcome(space, slate, vector)
        if not outcome.infinite:
            total += prob * outcome.distortion
            weight += prob
    return total / weight


# ---------------------------------------------------------------------------
# adversarial-full


@dataclass
class AdversarialState:
    seed: int
    params: object
    families: list
    vectors: list
    op_seeds: list
    instance: object


@dataclass(frozen=True)
class AdversarialResult:
    family_index: int
    seed: int
    report: object


class AdversarialFull:
    """The N=64^3 two-cluster experiment at jobs=2: hashed 262656x64 distance
    blocks far beyond L2, process fan-out and the BLAS thread pool."""

    name = "adversarial-full"
    RHO = 1.25
    TRIALS = 4  # per run_experiment call: two elections per worker
    JOBS = 2

    def setup(self, seed: int) -> AdversarialState:
        # run_experiment rebuilds the vectors and instance in every call; they
        # are built once here so that setup_s covers that set-up work too
        params = solve_parameters(self.RHO)
        families = [parse_family("plurality"), parse_family("borda")]
        op_seeds = _seeds(seed, 2, 4096)
        return AdversarialState(
            seed=seed,
            params=params,
            families=families,
            vectors=[f.score_vector(params.n_candidates) for f in families],
            op_seeds=op_seeds,
            instance=build_instance(params, op_seeds[0]),
        )

    def op_size(self, state, k: int) -> int:
        return self.TRIALS

    def run_op(self, state: AdversarialState, k: int, span) -> AdversarialResult:
        fi = k % len(state.families)
        seed = state.op_seeds[k % len(state.op_seeds)]
        with warnings.catch_warnings():
            # Borda is the control rule: its premise warning is expected
            warnings.simplefilter("ignore", UserWarning)
            with span("adversarial.run_experiment", k):
                report = run_experiment(
                    self.RHO, state.families[fi], self.TRIALS, seed, jobs=self.JOBS
                )
        return AdversarialResult(fi, seed, report)

    def check(self, state: AdversarialState, k: int, res: AdversarialResult) -> Checked:
        out = Checked()
        params, report = state.params, res.report
        floor = params.near_mass * params.cluster_distance
        # plurality violates the inequality at the cap (the premise holds);
        # borda satisfies it and runs as the control
        if report.condition_holds_at_cap != (state.families[res.family_index].spec == "borda"):
            out.failed += 1
        space = build_instance(params, res.seed).space
        for rec in report.records:
            slate = sample_candidates(space, params.n_candidates, res.seed, rec.trial)
            ok = (
                check_event(params, slate) == rec.event
                and int((slate >= params.near_locations).sum()) == rec.far_candidates
                and rec.distortion >= 1.0 - 1e-12
                and math.isclose(rec.distortion, rec.winner_cost / rec.optimum_cost, rel_tol=1e-12)
                and (not rec.winner_from_far or rec.winner_cost >= floor - 1e-9)
            )
            if not ok:
                out.failed += 1
        return out

    def probe_inputs(self, state: AdversarialState) -> ProbeInputs:
        params, seed = state.params, state.op_seeds[0]
        return ProbeInputs(
            seed=seed,
            build_space=lambda: build_instance(params, seed).space,
            family=state.families[0],
            n=params.n_candidates,
            slates=3,
            estimate=_small_estimate(seed),
            enumeration=_small_enumeration(seed),
            scan_n_max=SMALL_SCAN_N_MAX,
            adversarial=(None, None, self.TRIALS),
        )


WORKLOADS = {w.name: w for w in (AdversarialFull(), McSmall(), ExactRational())}
