import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricvoting import (
    MetricSpace,
    brute_force_outcome,
    oracle_sweep,
    random_space,
    rankings,
    run_election,
    score_vector,
)
from metricvoting.scoring import Borda, Plurality, Veto, normalize, parse_family


def test_rankings_worked_line(line_space):
    table = rankings(line_space, [0, 1, 2])
    assert table[1].tolist() == [1, 0, 2]  # voter at 1: distances 1, 0, 2
    assert table[0].tolist() == [0, 1, 2]
    assert table[2].tolist() == [2, 1, 0]


def test_rankings_colocated_candidate_first():
    space = MetricSpace([F(1, 2), F(1, 2)], matrix=[[0, 1], [1, 0]])
    table = rankings(space, [1, 0, 1])
    # voter at 0: candidate 1 sits on it; co-located 0 and 2 follow in index order
    assert table[0].tolist() == [1, 0, 2]
    assert table[1].tolist() == [0, 2, 1]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rankings_exact_equal_float_copy_on_dyadic_line(data):
    # quarter-step coordinates are exact in float64 and tie often, both
    # between distinct locations and between colocated candidates
    coords = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=7))
    npts = len(coords)
    slate = data.draw(st.lists(st.integers(0, npts - 1), min_size=1, max_size=6))
    exact = MetricSpace([F(1, npts)] * npts, matrix=[[F(abs(a - b), 4) for b in coords] for a in coords])
    floated = MetricSpace(exact.mass, matrix=exact.matrix)
    assert exact.exact and not floated.exact
    assert np.array_equal(rankings(exact, slate), rankings(floated, slate))


def test_rankings_reject_bad_slate(line_space):
    with pytest.raises(ValueError):
        rankings(line_space, [0, 5])


def test_run_election_worked_example(line_space):
    out = run_election(line_space, [0, 1, 2], score_vector(Borda(), 3))
    assert out.scores == (F(13, 20), F(13, 20), F(1, 5))
    assert out.winner == 0  # score tie with candidate 1, lowest index wins
    assert out.optimum == 0
    assert out.winner_cost == F(9, 10)
    assert out.optimum_cost == F(9, 10)
    assert out.distortion == 1


def test_run_election_matches_brute_force_on_worked_example(line_space):
    vec = score_vector(Borda(), 3)
    fast = run_election(line_space, [0, 1, 2], vec)
    naive = brute_force_outcome(line_space, [0, 1, 2], vec)
    assert fast.scores == naive.scores
    assert (fast.winner, fast.optimum) == (naive.winner, naive.optimum)
    assert fast.distortion == naive.distortion


def test_single_candidate_distortion_one(line_space):
    out = run_election(line_space, [2], score_vector(Borda(), 1))
    assert out.distortion == 1 and out.winner == 0


def test_colocated_slate_distortion_one(line_space):
    out = run_election(line_space, [1, 1, 1], score_vector(Plurality(), 3))
    assert out.distortion == 1


def test_vector_length_mismatch(line_space):
    with pytest.raises(ValueError):
        run_election(line_space, [0, 1], score_vector(Borda(), 3))


def test_zero_cost_policies():
    space = MetricSpace([F(1), F(0)], matrix=[[0, 1], [1, 0]])
    # winner and optimum both at the all-mass point: distortion 1
    out = run_election(space, [0, 1], score_vector(Plurality(), 2))
    assert out.distortion == 1 and not out.infinite
    # veto hands the win to a colocated pair away from the mass: infinite
    out = run_election(space, [1, 1, 0], score_vector(Veto(), 3))
    assert out.winner == 0 and out.optimum == 2
    assert out.infinite and out.distortion == math.inf


def _scores_with_raw(space, slate, raw):
    """Independent positional tally used only by the affine-invariance test."""
    table = rankings(space, slate)
    totals = [F(0)] * len(slate)
    for omega in range(space.npoints):
        for pos, cand in enumerate(table[omega]):
            totals[cand] += space.mass_exact[omega] * raw[pos]
    return totals


def test_affine_invariance_of_winner():
    raw = [F(7), F(5), F(2), F(2), F(1)]
    for seed in range(6):
        space = random_space(seed, 6, "iid-unit-interval-distances")
        slate = [0, 1, 2, 3, 4]
        raw_totals = _scores_with_raw(space, slate, raw)
        raw_winner = max(range(5), key=lambda i: (raw_totals[i], -i))
        out = run_election(space, slate, normalize(raw))
        assert out.winner == raw_winner


def test_permutation_equivariance():
    for seed in range(6):
        space = random_space(100 + seed, 7, "iid-unit-interval-distances")
        slate = [0, 2, 4, 6]
        vec = score_vector(Borda(), 4)
        base = run_election(space, slate, vec)
        if len(set(base.scores)) < len(base.scores):
            continue  # equivariance of the winner is only asserted tie-free
        perm = [2, 0, 3, 1]
        permuted = run_election(space, [slate[p] for p in perm], vec)
        assert [permuted.scores[i] for i in range(4)] == [base.scores[p] for p in perm]
        assert slate[perm[permuted.winner]] == slate[base.winner]
        assert permuted.winner_cost == base.winner_cost


def test_float_and_exact_paths_agree_on_dyadic_space():
    # dyadic masses and distances are exactly representable in float64
    space = MetricSpace(
        [F(1, 2), F(1, 4), F(1, 4)],
        matrix=[[0, F(1, 2), 1], [F(1, 2), 0, F(3, 4)], [1, F(3, 4), 0]],
    )
    vec = score_vector(Borda(), 3)
    exact = run_election(space, [0, 1, 2], vec)
    floated = run_election(space, [0, 1, 2], vec, exact=False)
    assert floated.winner == exact.winner
    assert floated.optimum == exact.optimum
    assert all(float(a) == b for a, b in zip(exact.scores, floated.scores))


def test_oracle_sweep_clean():
    result = oracle_sweep(trials=200, seed=42)
    assert result.ok, result.mismatches[:3]


def test_distortion_at_least_one_and_scores_in_unit_range():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        space = random_space(seed, 6, "uniform-box-L2")
        slate = rng.integers(0, 6, size=4).tolist()
        fam = parse_family(["plurality", "veto", "borda", "dowdall"][seed % 4])
        out = run_election(space, slate, score_vector(fam, 4))
        assert out.distortion >= 1
        assert all(0 <= s <= 1 for s in out.scores)  # mass-weighted unit scores
