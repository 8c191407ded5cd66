import ctypes
import json
import math
import multiprocessing
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from metricvoting import (
    MetricSpace,
    estimate_distortion,
    exact_expected_distortion,
    merge_estimates,
    random_space,
    sample_candidates,
    sufficiency_probe,
)
from metricvoting import elections, montecarlo
from metricvoting._hash import trial_uniforms
from metricvoting.montecarlo import _probe_counts, _summarize
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


def test_exact_oracle_enumeration_guard(two_point_space):
    with pytest.raises(ValueError):
        exact_expected_distortion(two_point_space, Borda(), 25)


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
    est = _summarize(dstr, wdist, [0.0, 1.0, 5.0], trial_start=0)
    assert est.infinite_flag_count == 1
    assert est.mean == 2.0
    assert est.trials == 4


def test_probe_rejects_bad_z(line_space):
    for z in (0.5, 1.0, 0.2):
        with pytest.raises(ValueError):
            sufficiency_probe(line_space, Borda(), 4, 10, seed=0, z=z)


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
    est = _summarize(np.ones(wdist.size), wdist, knots, trial_start=0)
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
    monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", budget)
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
    assert _probe_counts(space, 8, 4, 0.6, est.winner_distances) == probe


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**63 + 12345, 2**64 - 1])
def test_trial_uniforms_are_the_keyed_philox_streams(seed):
    got = trial_uniforms(seed, 2**32 - 2, 5, 9)
    for i, row in enumerate(got):
        key = np.array([seed, 2**32 - 2 + i], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).random(9)
        assert row.tobytes() == want.tobytes()


def test_sample_candidates_is_a_row_of_the_batch():
    space = random_space(5, 20, "uniform-box-L2")
    batch = montecarlo._slates(space, 6, 3, 10, 4)
    for i in range(4):
        assert sample_candidates(space, 6, 3, 10 + i).tobytes() == batch[i].tobytes()


# ---------------------------------------------------------------------------
# every fan-out part runs BLAS on one thread


_BLAS_GETTERS = tuple(name.format("get") for name in elections._BLAS_NAMES)


def _blas_threads():
    """This process's OpenBLAS thread count, or None without a known getter."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for name in _BLAS_GETTERS:
        getter = getattr(lib, name, None)
        if getter is not None:
            return getter()
    return None


def _report_blas_threads(start, count):
    return _blas_threads()


def test_fan_out_runs_every_part_on_one_blas_thread():
    before = _blas_threads()
    if before is None:
        pytest.skip("numpy's BLAS exports no known OpenBLAS thread getter")
    for jobs in (1, 2, 3):
        assert montecarlo._fan_out(_report_blas_threads, (), 0, 9, jobs) == [1] * jobs
        assert _blas_threads() == before


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched names only when forked")
def test_fan_out_without_a_blas_setter_runs_unchanged(monkeypatch):
    before = _blas_threads()
    monkeypatch.setattr(elections, "_BLAS_NAMES", ("no_such_blas_{}_num_threads",))
    for jobs in (1, 2):
        assert montecarlo._fan_out(_report_blas_threads, (), 0, 8, jobs) == [before] * jobs
