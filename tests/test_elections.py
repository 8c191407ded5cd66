import json
import math
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricvoting import (
    MetricSpace,
    brute_force_outcome,
    build_instance,
    oracle_sweep,
    random_space,
    rankings,
    run_election,
    score_vector,
    solve_parameters,
)
from metricvoting import adversarial, elections
from metricvoting.montecarlo import _fan_out
from metricvoting.scoring import Borda, Plurality, ScoringVector, Veto, normalize, parse_family


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batched_kernel_equals_single_elections(data):
    # dyadic masses, quarter-step distances and quarter-step scores make
    # every float sum exact, so the float winner is the exact-rule winner
    coords = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=8))
    weights = data.draw(st.lists(st.integers(1, 4), min_size=len(coords) - 1, max_size=len(coords) - 1))
    total = 1 << sum(weights).bit_length()  # the last point takes the rest
    mass = [F(w, total) for w in weights + [total - sum(weights)]]
    dist = [[F(abs(a - b), 4) for b in coords] for a in coords]
    kind = data.draw(st.sampled_from(["stored", "exact", "derived"]))
    if kind == "exact":
        space = MetricSpace(mass, matrix=dist)  # elected on the float path
    elif kind == "stored":
        space = MetricSpace(np.array(mass, dtype=float), matrix=np.array(dist, dtype=float))
    else:
        pos = np.array(coords) / 4.0
        space = MetricSpace(np.array(mass, dtype=float), block_fn=lambda i, j: np.abs(pos[i] - pos[j]))
    n = data.draw(st.integers(1, 6))
    middle = data.draw(st.lists(st.integers(0, 4), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    tail = (*(F(q, 4) for q in sorted(middle, reverse=True)), F(0)) if n > 1 else ()
    vec = ScoringVector(n, (F(1), *tail))
    # duplicate candidates and colocated points tie at every location
    slates = data.draw(st.lists(st.lists(st.integers(0, len(coords) - 1), min_size=n, max_size=n),
                                min_size=1, max_size=6))
    scores, costs, winners, optima = elections._run_float(space, np.array(slates), vec)
    for t, slate in enumerate(slates):
        alone = run_election(space, slate, vec, exact=False)
        assert scores[t].tobytes() == np.array(alone.scores).tobytes()
        assert (winners[t], optima[t]) == (alone.winner, alone.optimum)
        assert costs[t][alone.winner].hex() == alone.winner_cost.hex()
        assert costs[t][alone.optimum].hex() == alone.optimum_cost.hex()
        ref = brute_force_outcome(space, slate, vec)
        assert (alone.winner, alone.optimum) == (ref.winner, ref.optimum)


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


# ---------------------------------------------------------------------------
# float kernel: bit identity and the top-choice path

GOLDEN = Path(__file__).parent / "data" / "float_kernel_golden.json"


@pytest.fixture(scope="module")
def golden_instance():
    # 70512 locations: two summation blocks of elections._CHUNK_ROWS rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = solve_parameters(1.25, n_override=16, big_n_override=70000)
    return build_instance(params, 5).space


def _hexed(outcome):
    return (
        [float(s).hex() for s in outcome.scores],
        outcome.winner,
        outcome.optimum,
        float(outcome.winner_cost).hex(),
        float(outcome.optimum_cost).hex(),
    )


def test_float_kernel_matches_recorded_bits(golden_instance):
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert golden_instance.npoints > elections._CHUNK_ROWS
    for case in cases:
        vec = score_vector(parse_family(case["family"]), len(case["slate"]))
        got = _hexed(run_election(golden_instance, case["slate"], vec))
        want = (case["scores"], case["winner"], case["optimum"],
                case["winner_cost"], case["optimum_cost"])
        assert got == want, case["family"]


def _golden_part(space, cases, start, count):
    return [_hexed(run_election(space, c["slate"], score_vector(parse_family(c["family"]), 16)))
            for c in cases[start:start + count]]


def test_float_kernel_bits_in_one_blas_thread_workers(golden_instance):
    # fan-out workers run BLAS with one thread; each cost gemv over a
    # 65536 x 16 block is still summed to the recorded bits
    cases = json.loads(GOLDEN.read_text())["cases"]
    parts = _fan_out(_golden_part, (golden_instance, cases), 0, len(cases), jobs=2)
    assert len(parts) == 2
    want = [(c["scores"], c["winner"], c["optimum"], c["winner_cost"], c["optimum_cost"])
            for c in cases]
    assert [outcome for part in parts for outcome in part] == want


@pytest.mark.parametrize("sub_rows", [7, 1000, 4096])
def test_sub_block_size_changes_no_bit(golden_instance, monkeypatch, sub_rows):
    slate = json.loads(GOLDEN.read_text())["cases"][-1]["slate"]
    want = {f: run_election(golden_instance, slate, score_vector(parse_family(f), 16))
            for f in ("plurality", "borda")}
    monkeypatch.setattr(elections, "_SUB_ROWS", sub_rows)
    monkeypatch.setattr(adversarial, "_PASS_ROWS", sub_rows)
    for f, outcome in want.items():
        assert run_election(golden_instance, slate, score_vector(parse_family(f), 16)) == outcome


def _dyadic_line(npoints, derived):
    # masses are multiples of 2^-13 and distances integers, so every score
    # and cost sum is exact in float64 whatever the order of summation; the
    # line and its masses are symmetric about the middle (npoints % 6 == 0)
    half = np.random.default_rng(npoints).integers(1, 4, npoints)
    mass = (half + half[::-1]) / 8192.0
    coords = np.arange(npoints) // 3  # three colocated points per site
    if derived:
        return MetricSpace(mass, block_fn=lambda i, j: np.abs(coords[i] - coords[j]).astype(float))
    return MetricSpace(mass, matrix=np.abs(coords[:, None] - coords[None, :]).astype(float))


def _spy_rank(monkeypatch):
    seen = []
    original = elections._rank

    def spy(dist, top_only):
        seen.append(top_only)
        return original(dist, top_only)

    monkeypatch.setattr(elections, "_rank", spy)
    return seen


@pytest.mark.parametrize("npoints, derived", [(30, False), (5004, True)])
def test_top_choice_path_equals_brute_force(monkeypatch, npoints, derived):
    space = _dyadic_line(npoints, derived)
    seen = _spy_rank(monkeypatch)
    last = npoints - 1
    slates = [
        [5, 5, 0, 1, last],  # duplicate entries tie at every location
        [3, 4, 5, 5],  # colocated and duplicate candidates: one site
        [last, 0, 0, last],  # the two ends split the mass evenly
    ]
    outcomes = []
    for slate in slates:
        vec = score_vector(Plurality(), len(slate))
        outcomes.append(run_election(space, slate, vec))
        assert outcomes[-1] == brute_force_outcome(space, slate, vec)
    # candidates sharing a site split nothing: the lowest index takes it all
    assert outcomes[1].scores[1:] == (0.0, 0.0, 0.0) and outcomes[1].winner == 0
    # a tie for the most votes goes to the lowest index
    ends = outcomes[2]
    assert ends.scores[0] == ends.scores[1] > 0 and ends.winner == 0
    assert ends.scores[2:] == (0.0, 0.0)
    assert seen and all(seen)


@pytest.mark.parametrize("npoints, derived", [(30, False), (5004, True)])
def test_nonzero_tail_vector_keeps_argsort(monkeypatch, npoints, derived):
    space = _dyadic_line(npoints, derived)
    seen = _spy_rank(monkeypatch)
    slate = [5, 5, 0, 1, npoints - 1, 17]
    vec = normalize([2, 1, 1, 1, 1, 0])  # (1, 1/2, 1/2, 1/2, 1/2, 0)
    assert vec.float_scores[1:].any()
    assert run_election(space, slate, vec) == brute_force_outcome(space, slate, vec)
    assert seen and not any(seen)
