import json
import math
import os
from concurrent.futures import Future
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricvoting import (
    MetricSpace,
    estimate_distortion,
    exact_expected_distortion,
    merge_estimates,
    probe_estimate,
    random_space,
    sample_candidates,
    sufficiency_probe,
)
from metricvoting import elections, montecarlo
from metricvoting._hash import trial_uniforms
from metricvoting.montecarlo import _summarize
from metricvoting.scoring import Borda, Plurality, Veto, parse_family


def test_sampling_deterministic(two_point_space):
    a = sample_candidates(two_point_space, 10, seed=4, trial_index=3)
    b = sample_candidates(two_point_space, 10, seed=4, trial_index=3)
    assert np.array_equal(a, b)
    c = sample_candidates(two_point_space, 10, seed=4, trial_index=4)
    assert not np.array_equal(a, c)


def test_sampling_point_mass():
    space = MetricSpace([F(0), F(1), F(0)], matrix=[[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    slate = sample_candidates(space, 50, seed=1, trial_index=0)
    assert (slate == 1).all()


def test_sampling_frequency(two_point_space):
    slate = sample_candidates(two_point_space, 100_000, seed=9, trial_index=0)
    assert abs((slate == 0).mean() - 0.75) < 0.01


def test_estimate_single_point_space():
    space = MetricSpace([F(1)], matrix=[[0]])
    est = estimate_distortion(space, Borda(), 3, trials=50, seed=0)
    assert est.mean == 1.0 and est.stderr == 0.0
    assert est.infinite_flag_count == 0


def test_estimate_matches_exact_oracle(line_space, asym_line_space):
    for space, family in [
        (line_space, Borda()),
        (asym_line_space, Plurality()),
        (asym_line_space, Veto()),
    ]:
        exact = exact_expected_distortion(space, family, 3)
        est = estimate_distortion(space, family, 3, trials=4000, seed=11)
        assert abs(est.mean - float(exact)) <= 3 * est.stderr + 1e-12
        assert 1 <= est.mean <= 4  # distortion of 3 candidates is at most n+1


def test_exact_oracle_values(two_point_space, asym_line_space):
    space1 = MetricSpace([F(1)], matrix=[[0]])
    assert exact_expected_distortion(space1, Borda(), 4) == 1
    # two equal-mass points at distance 1, plurality n=2: each of the four
    # ordered slates ends with winner cost equal to optimum cost
    equal = MetricSpace([F(1, 2), F(1, 2)], matrix=[[0, 1], [1, 0]])
    assert exact_expected_distortion(equal, Plurality(), 2) == 1
    # asymmetric masses do produce strictly positive expected excess
    val = exact_expected_distortion(asym_line_space, Plurality(), 3)
    assert isinstance(val, F) and val > 1


def test_exact_oracle_excludes_zero_cost_optima():
    # unvalidated (d(1, 2) = 1 > d(1, 0) + d(0, 2) = 0): location 0 costs 0,
    # and the slates (1, 0) and (2, 0), mass 2/9, elect the other candidate
    space = MetricSpace([F(1, 3)] * 3, matrix=[[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.warns(UserWarning, match=r"excluding probability mass 0\.222222 of zero-cost-optimum slates"):
        assert exact_expected_distortion(space, Plurality(), 2) == 1


def test_exact_oracle_on_float_copy_of_dyadic_space():
    # dyadic masses, distances and scores (Borda at n = 5, Dowdall at n = 3)
    # make every float score sum exact, so the float enumeration elects the
    # same winners and differs from the exact expectation only by the
    # rounding of its costs and sums
    coords = [0, 1, 1, 3, 6, 7]
    exact = MetricSpace([F(w, 16) for w in (1, 2, 5, 3, 4, 1)],
                        matrix=[[F(abs(a - b), 4) for b in coords] for a in coords])
    floated = MetricSpace(exact.mass, matrix=exact.matrix)
    assert exact.exact and not floated.exact
    for spec, n in (("plurality", 4), ("veto", 4), ("kapproval:2", 4), ("borda", 5),
                    ("dowdall", 3), ("gapproval:1/2", 4)):
        family = parse_family(spec)
        want = exact_expected_distortion(exact, family, n)
        got = exact_expected_distortion(floated, family, n)
        assert isinstance(want, F) and isinstance(got, float)
        assert abs(got - float(want)) <= 1e-12, spec


def test_exact_oracle_enumeration_guard(two_point_space):
    with pytest.raises(ValueError):
        exact_expected_distortion(two_point_space, Borda(), 25)


def test_enumeration_on_a_large_derived_space_is_refused():
    # n = 1 passes the P^n cap, but every location's cost takes P^2 distances
    pos = np.arange(5000) / 5000.0
    space = MetricSpace(np.full(5000, 1 / 5000), block_fn=lambda i, j: np.abs(pos[i] - pos[j]))
    with pytest.raises(ValueError, match="capped"):
        exact_expected_distortion(space, Plurality(), 1)


def test_merge_equals_single_run(line_space):
    whole = estimate_distortion(line_space, Borda(), 3, trials=600, seed=5)
    a = estimate_distortion(line_space, Borda(), 3, trials=250, seed=5)
    b = estimate_distortion(line_space, Borda(), 3, trials=350, seed=5, trial_start=250)
    merged = merge_estimates(a, b)
    assert merged == whole  # summary fields compare; arrays are excluded
    assert np.array_equal(merged.distortions, whole.distortions)
    assert merge_estimates(b, a) == whole  # order-insensitive


def test_merge_rejects_overlap(line_space):
    a = estimate_distortion(line_space, Borda(), 3, trials=100, seed=5)
    b = estimate_distortion(line_space, Borda(), 3, trials=100, seed=5, trial_start=50)
    with pytest.raises(ValueError):
        merge_estimates(a, b)


def test_merge_rejects_gap(line_space):
    a = estimate_distortion(line_space, Borda(), 3, trials=10, seed=5)
    b = estimate_distortion(line_space, Borda(), 3, trials=10, seed=5, trial_start=20)
    for pair in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="gap"):
            merge_estimates(*pair)


def test_merge_rejects_another_rule_family():
    space = random_space(2, 12, "uniform-box-L2")
    borda = estimate_distortion(space, Borda(), 4, trials=50, seed=3)
    plurality = estimate_distortion(space, Plurality(), 4, trials=50, seed=3, trial_start=50)
    assert (borda.family_spec, plurality.family_spec) == ("borda", "plurality")
    for pair in ((borda, plurality), (plurality, borda)):
        with pytest.raises(ValueError, match="rule family"):
            merge_estimates(*pair)


def test_parallel_jobs_identical():
    space = random_space(2, 12, "uniform-box-L2")
    serial = estimate_distortion(space, Plurality(), 4, trials=80, seed=3, jobs=1)
    parallel = estimate_distortion(space, Plurality(), 4, trials=80, seed=3, jobs=2)
    assert serial == parallel
    assert np.array_equal(serial.distortions, parallel.distortions)


def test_parallel_jobs_identical_with_offset_and_uneven_ranges():
    space = random_space(4, 12, "uniform-box-L2")
    whole = estimate_distortion(space, Borda(), 5, trials=12, seed=9)
    runs = [
        estimate_distortion(space, Borda(), 5, trials=7, seed=9, trial_start=5, jobs=jobs)
        for jobs in (1, 2, 3)
    ]
    for est in runs:
        assert est == runs[0]
        assert est.distortions.tobytes() == whole.distortions[5:].tobytes()
        assert est.winner_distances.tobytes() == whole.winner_distances[5:].tobytes()


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    task at submit, in this process."""

    def __init__(self, max_workers, requests):
        requests.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_fan_out_workers_are_capped_by_cores_and_ranges(monkeypatch):
    requests = []
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor",
                        lambda max_workers: _InlineExecutor(max_workers, requests))
    space = random_space(2, 12, "uniform-box-L2")
    serial = estimate_distortion(space, Plurality(), 4, trials=40, seed=3, jobs=1)
    wide = estimate_distortion(space, Plurality(), 4, trials=40, seed=3, jobs=10_000)
    assert wide == serial and wide.distortions.tobytes() == serial.distortions.tobytes()
    assert all(workers <= (os.cpu_count() or 1) for workers in requests)
    # 8 cores and 5 trials: ranges of one trial each, so 5 workers, not 8
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    requests.clear()
    few = estimate_distortion(space, Plurality(), 4, trials=5, seed=3, jobs=10_000)
    assert requests == [5]
    assert few.distortions.tobytes() == serial.distortions[:5].tobytes()


def test_linear_distortion_envelope():
    # expected distortion of n sampled candidates never beats n+1 by much
    for seed in range(4):
        space = random_space(seed, 10, "uniform-box-L2")
        for n in (2, 3):
            est = estimate_distortion(space, Plurality(), n, trials=300, seed=seed)
            assert est.mean <= (n + 1) + 3 * est.stderr


def test_exact_expectation_within_linear_envelope(line_space, asym_line_space):
    for space in (line_space, asym_line_space):
        for n in (2, 3):
            assert exact_expected_distortion(space, Plurality(), n) <= n + 1


def test_histogram_consistency(line_space):
    est = estimate_distortion(line_space, Borda(), 3, trials=500, seed=8)
    hist = est.winner_distance_histogram
    probs = [p for _, p in hist]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    # winner distances land exactly on the knots, so the layered sum is exact
    radii = [r for r, _ in hist]
    increments = [
        probs[k] - (probs[k + 1] if k + 1 < len(probs) else 0.0)
        for k in range(len(probs))
    ]
    layered_mean = sum(r * inc for r, inc in zip(radii, increments))
    assert abs(layered_mean - est.winner_distances.mean()) < 1e-12


def test_infinite_trials_excluded_from_mean():
    dstr = np.array([1.0, 2.0, math.inf, 3.0])
    wdist = np.array([0.0, 1.0, 5.0, 1.0])
    est = _summarize(dstr, wdist, [0.0, 1.0, 5.0], n=2, seed=0, trial_start=0,
                     family_spec="borda")
    assert est.infinite_flag_count == 1
    assert est.mean == 2.0
    assert est.trials == 4


def test_probe_rejects_bad_z(line_space):
    for z in (0.5, 1.0, 0.2):
        with pytest.raises(ValueError):
            sufficiency_probe(line_space, Borda(), 4, 10, seed=0, z=z)


def test_probe_rejects_a_space_whose_mass_never_reaches_tilde_y():
    # unvalidated masses summing to 1/2: at z = 3/4 no ball holds tilde_y
    space = MetricSpace([F(1, 4), F(1, 8), F(1, 8)], matrix=[[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    est = estimate_distortion(space, Borda(), 3, 20, 1)
    for probe in (lambda: sufficiency_probe(space, Borda(), 3, 20, 1, F(3, 4)),
                  lambda: probe_estimate(space, est, F(3, 4))):
        with pytest.raises(ValueError, match="no ball around the 1-median holds mass"):
            probe()


def test_probe_degenerate_single_point():
    space = MetricSpace([F(1)], matrix=[[0]])
    probe = sufficiency_probe(space, Borda(), 4, trials=40, seed=0, z=F(3, 4))
    assert probe.r_tilde == 0.0
    assert probe.winner_outside_counts == (0,)
    assert probe.violation_counts == (0,)


def test_probe_chernoff_bound_and_containment():
    z = 0.75
    for seed in range(5):
        space = random_space(seed, 20, "uniform-box-L2")
        probe = sufficiency_probe(space, Borda(), 16, trials=150, seed=seed, z=z)
        assert probe.tilde_y == pytest.approx((1 - 1 / math.e) + z / math.e)
        for v_r, events in zip(probe.outside_mass_at, probe.event_counts):
            p_hat = events / probe.trials
            stderr = math.sqrt(p_hat * (1 - p_hat) / probe.trials)
            assert p_hat <= (math.e / (1 - z)) * v_r + 3 * stderr + 1e-12
        assert all(v == 0 for v in probe.violation_counts)


def test_histogram_is_the_share_at_or_beyond_each_knot():
    rng = np.random.default_rng(3)
    wdist = rng.integers(0, 6, 257) / 4.0  # many ties, some knots never hit
    knots = np.arange(0, 9) / 4.0
    est = _summarize(np.ones(wdist.size), wdist, knots, n=2, seed=0, trial_start=0,
                     family_spec="borda")
    want = tuple((float(r), float(np.mean(wdist >= r))) for r in knots)
    assert est.winner_distance_histogram == want


# ---------------------------------------------------------------------------
# batched trials: recorded bits, batch-size invariance, the keyed sampler

GOLDEN = Path(__file__).parent / "data" / "small_space_golden.json"
FAMILY_SPECS = ("plurality", "veto", "kapproval:3", "gapproval:1/2", "borda", "dowdall")


def _dyadic7():
    # quarter-step line with colocated pairs and one far point; float path
    coords = np.array([0, 1, 1, 2, 3, 3, 24]) / 4.0
    mass = np.array([10, 6, 6, 14, 11, 11, 6]) / 64.0
    return MetricSpace(mass, matrix=np.abs(coords[:, None] - coords[None, :]))


GOLDEN_SPACES = {"box20": lambda: random_space(17, 20, "uniform-box-L2"), "dyadic7": _dyadic7}


def test_small_space_estimates_match_recorded_bits():
    golden = json.loads(GOLDEN.read_text())
    spaces = {name: make() for name, make in GOLDEN_SPACES.items()}
    assert not any(space.exact for space in spaces.values())
    assert {(c["family"], c["n"]) for c in golden["cases"]} == {
        (f, n) for f in FAMILY_SPECS for n in (1, 2, 8, 64)
    }
    for case in golden["cases"]:
        est = estimate_distortion(spaces[case["space"]], parse_family(case["family"]), case["n"],
                                  golden["trials"], golden["seeds"][case["space"]],
                                  trial_start=golden["trial_start"])
        where = (case["space"], case["family"], case["n"])
        assert [x.hex() for x in est.distortions.tolist()] == case["distortions"], where
        assert [x.hex() for x in est.winner_distances.tolist()] == case["winner_distances"], where


def test_small_space_probe_matches_recorded_counts():
    want = json.loads(GOLDEN.read_text())["probe"]
    seed = json.loads(GOLDEN.read_text())["seeds"][want["space"]]
    probe = sufficiency_probe(GOLDEN_SPACES[want["space"]](), parse_family(want["family"]),
                              want["n"], want["trials"], seed, want["z"])
    assert [r.hex() for r in probe.radii] == want["radii"]
    assert [v.hex() for v in probe.outside_mass_at] == want["outside_mass_at"]
    assert list(probe.event_counts) == want["event_counts"]
    assert list(probe.winner_outside_counts) == want["winner_outside_counts"]
    assert list(probe.violation_counts) == want["violation_counts"]
    assert sum(want["violation_counts"]) > 0  # the recorded probe is not all zeros


def _batch_runs(space):
    runs = [estimate_distortion(space, parse_family(f), n, 37, 11, trial_start=3, jobs=jobs)
            for f, n in (("borda", 64), ("plurality", 2), ("veto", 5)) for jobs in (1, 2)]
    probe = sufficiency_probe(space, Veto(), 8, 90, 11, 0.6)
    return runs, probe


@pytest.mark.parametrize("budget", [1, 1 << 40])
def test_batch_budget_changes_no_bit(monkeypatch, budget):
    space = random_space(6, 20, "uniform-box-L2")
    runs, probe = _batch_runs(space)
    monkeypatch.setattr(elections, "_PASS_ELEMENTS", budget)
    again, again_probe = _batch_runs(space)
    assert again_probe == probe
    for a, b in zip(runs, again):
        assert a == b
        assert a.distortions.tobytes() == b.distortions.tobytes()
        assert a.winner_distances.tobytes() == b.winner_distances.tobytes()


def test_estimate_winner_distances_feed_the_probe():
    # the estimate elects the probe's trials, so its winner distances give
    # the same counts as the probe's own elections
    space = random_space(8, 20, "uniform-box-L2")
    est = estimate_distortion(space, Veto(), 8, 120, 4, jobs=2)
    probe = sufficiency_probe(space, Veto(), 8, 120, 4, 0.6)
    assert probe_estimate(space, est, 0.6) == probe


def test_probe_of_an_offset_estimate_counts_its_own_slates():
    # counts add over adjoining trial ranges only if each probe redraws the
    # slates of its own estimate's trials
    space = random_space(8, 20, "uniform-box-L2")
    whole, head, tail = (estimate_distortion(space, Veto(), 8, count, 4, trial_start=start)
                         for start, count in ((0, 120), (0, 45), (45, 75)))
    probes = [probe_estimate(space, est, 0.6) for est in (whole, head, tail)]
    assert probes[2].trials == 75
    for name in ("event_counts", "winner_outside_counts", "violation_counts"):
        counts = [getattr(probe, name) for probe in probes]
        assert counts[0] == tuple(a + b for a, b in zip(counts[1], counts[2])), name


def test_an_estimate_carries_its_own_n_and_seed():
    # the probe redraws the estimate's own slates, and merging refuses runs
    # of another n or seed
    space = random_space(8, 20, "uniform-box-L2")
    est = estimate_distortion(space, Veto(), 8, 50, 4)
    assert (est.n, est.seed) == (8, 4)
    assert probe_estimate(space, est, 0.6) == sufficiency_probe(space, Veto(), 8, 50, 4, 0.6)
    for n, seed in ((6, 4), (8, 5)):
        with pytest.raises(ValueError, match="different n or seed"):
            merge_estimates(est, estimate_distortion(space, Veto(), n, 30, seed, trial_start=50))


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**63 + 12345, 2**64 - 1])
def test_trial_uniforms_are_the_keyed_philox_streams(seed):
    got = trial_uniforms(seed, 2**32 - 2, 5, 9)
    for i, row in enumerate(got):
        key = np.array([seed, 2**32 - 2 + i], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(9)
        assert row.tobytes() == want.tobytes()


def test_sample_candidates_refuses_keys_outside_64_bits():
    space = random_space(5, 20, "uniform-box-L2")
    last = 2**64 - 1
    assert sample_candidates(space, 3, last, last).shape == (3,)
    for seed, trial in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\^64\)"):
            sample_candidates(space, 3, seed, trial)
    with pytest.raises(ValueError, match="must lie in"):  # a batch that runs past 2^64 - 1
        trial_uniforms(0, last - 1, 3, 2)


def test_sample_candidates_is_a_row_of_the_batch():
    space = random_space(5, 20, "uniform-box-L2")
    batch = montecarlo._slates(space, 6, 3, 10, 4)
    for i in range(4):
        assert sample_candidates(space, 6, 3, 10 + i).tobytes() == batch[i].tobytes()


_MASS_SCALES = (1.0, 1 - 2**-53, 1 - 2**-52, 1 - 1e-12, 1 + 2**-52, 1 + 1e-12)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_guide_table_draws_are_the_clamped_searchsorted(data):
    # every float u in [0, 1) lands where the whole-array search puts it:
    # the bucket edges k/K, the neighbours of each cumulative mass and keyed
    # uniforms, on masses with zeros, tiny or dyadic values whose cumulative sum
    # ends on either side of 1, from one point to far more than K
    npoints = data.draw(st.sampled_from([1, 2, 3, 7, 20, 300, 10_000]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(npoints) * rng.choice([0.0, 1e-300, 1e-17, 1.0], npoints,
                                               p=data.draw(st.sampled_from([(0, 0, 0, 1), (0.3, 0.1, 0.1, 0.5)])))
    weights[rng.integers(npoints)] += 1.0
    if data.draw(st.booleans()):  # dyadic masses: cumulative masses on bucket edges
        weights = rng.integers(0, 3, npoints).astype(float)
        weights[-1] += 2.0 ** math.ceil(math.log2(weights.sum() + 1)) - weights.sum()
    mass = weights / weights.sum() * data.draw(st.sampled_from(_MASS_SCALES))
    space = MetricSpace(mass, block_fn=lambda i, j: np.abs(i - j) * 1.0)
    cum = space.cum_mass
    buckets = space.guide.size
    assert buckets & (buckets - 1) == 0
    assert buckets == 4096 if npoints > 256 else 16 * npoints <= buckets < 32 * npoints
    u = np.concatenate([np.arange(buckets) / buckets, cum, np.nextafter(cum, 0), np.nextafter(cum, 2),
                        [0.0, 5e-324, 1 - 2**-53], trial_uniforms(data.draw(st.integers(0, 99)), 0, 8, 64).ravel()])
    u = u[(u >= 0) & (u < 1)]
    want = np.minimum(np.searchsorted(cum, u, side="right"), npoints - 1)
    got = montecarlo._inverse_cdf(space, u.reshape(1, -1))[0]
    assert got.dtype == np.int64 and got.tobytes() == want.astype(np.int64).tobytes()


_PROBE_SPACES = {
    "stored": lambda: random_space(8, 20, "uniform-box-L2"),
    "exact": lambda: MetricSpace([F(1, 2), F(3, 10), F(1, 5)], matrix=[[0, 1, 3], [1, 0, 2], [3, 2, 0]]),
    "single-point": lambda: MetricSpace([F(1)], matrix=[[0]]),
}


@pytest.mark.parametrize("kind", sorted(_PROBE_SPACES))
def test_probe_equals_the_probe_of_its_estimate(kind):
    space = _PROBE_SPACES[kind]()
    for family, n, z in ((Borda(), 16, 0.75), (Veto(), 3, 0.6)):
        est = estimate_distortion(space, family, n, 70, 5)
        assert sufficiency_probe(space, family, n, 70, 5, z) == probe_estimate(space, est, z)


def test_probe_draws_each_slate_once(monkeypatch):
    rows = []

    def counted(seed, start, count, n):
        rows.append(count)
        return trial_uniforms(seed, start, count, n)

    monkeypatch.setattr(montecarlo, "trial_uniforms", counted)
    sufficiency_probe(random_space(8, 20, "uniform-box-L2"), Borda(), 64, 90, 4, 0.75)
    assert sum(rows) == 90
