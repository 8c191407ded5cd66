import json
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricvoting import (
    MetricSpace,
    brute_force_outcome,
    build_instance,
    one_median,
    oracle_sweep,
    random_space,
    rankings,
    run_election,
    social_cost,
    solve_parameters,
)
from metricvoting import elections, montecarlo
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
    _assert_batch_is_lone_elections(space, vec, np.array(slates))


def _assert_batch_is_lone_elections(space, vec, slates):
    kernel = elections._kernel_space(space, False)
    scores, costs, winners, optima = elections._elect(*kernel, vec.float_scores, slates)
    for t, slate in enumerate(slates):
        alone = run_election(space, slate, vec, exact=False)
        assert scores[t].tobytes() == np.array(alone.scores).tobytes()
        assert (winners[t], optima[t]) == (alone.winner, alone.optimum)
        assert costs[t].tobytes() == elections._elect(*kernel, vec.float_scores, slate[None])[1].tobytes()
        assert costs[t][alone.winner].hex() == alone.winner_cost.hex()
        assert costs[t][alone.optimum].hex() == alone.optimum_cost.hex()
        ref = brute_force_outcome(space, slate, vec)
        assert (alone.winner, alone.optimum) == (ref.winner, ref.optimum)


def _box_3000(derived):
    # box distances on 3000 points, rounded differently in every order of
    # summation; the derived copy looks the same matrix up
    rng = np.random.default_rng(3000)
    x, y = rng.random((2, 3000))
    mass = rng.uniform(0.5, 1.5, 3000)
    space = MetricSpace(mass / mass.sum(), matrix=np.hypot(x[:, None] - x, y[:, None] - y))
    return _derived_copy(space) if derived else space


@pytest.mark.parametrize("derived", [False, True], ids=["stored", "derived"])
@pytest.mark.parametrize("n", [2, 5])
def test_batched_kernel_equals_single_elections_above_2048_points(monkeypatch, derived, n):
    space = _box_3000(derived)
    count = elections._batch_step(space.npoints, n)
    assert count > 1  # spaces of any size elect a stack of slates per call
    slates = montecarlo._slates(space, n, 17, 0, count)
    slates[0, 1:] = slates[0, 0]  # duplicate candidates tie at every location
    for spec in ("plurality", "borda"):
        _assert_batch_is_lone_elections(space, parse_family(spec).score_vector(n), slates)
    # the stack in passes of seven locations
    monkeypatch.setattr(elections, "_PASS_ELEMENTS", 7 * slates.size)
    _assert_batch_is_lone_elections(space, Borda().score_vector(n), slates)


@pytest.mark.parametrize("pass_rows", [2048, 7])
def test_exact_election_beyond_int64_and_float(monkeypatch, pass_rows):
    # 30 points on a line, d = |i - j|, with d(1, 2) raised by 3^-50: scaled
    # by the LCM 3^50 the distances overflow an int64, and in float64 the
    # voter at 1 ties candidates at 0 and 2 that exact arithmetic ranks apart
    tiny = F(1, 3**50)
    rows = [[F(abs(i - j)) for j in range(30)] for i in range(30)]
    rows[1][2] = rows[2][1] = 1 + tiny
    space = MetricSpace([F(i + 1, 465) for i in range(30)], matrix=rows)
    assert float(rows[1][2]) == rows[1][0]
    slate = [2, 0, 2, 29, 1]
    # a budget of 7 * n elements ranks 30 points in passes of seven rows
    monkeypatch.setattr(elections, "_PASS_ELEMENTS", pass_rows * len(slate))
    table = rankings(space, slate)
    for omega in range(30):
        want = sorted(range(len(slate)), key=lambda c: (rows[omega][slate[c]], c))
        assert table[omega].tolist() == want
    assert table[1].tolist() == [4, 1, 0, 2, 3]
    for spec in ("plurality", "borda", "dowdall", "kapproval:2"):
        vec = parse_family(spec).score_vector(len(slate))
        assert run_election(space, slate, vec) == brute_force_outcome(space, slate, vec)


_SIX_FAMILIES = ("plurality", "veto", "kapproval:2", "borda", "dowdall", "gapproval:1/2")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_election_equals_brute_force(data):
    # few distinct coordinates and weights make ties in distance and in
    # score common; duplicate slate entries tie at every location
    npts = data.draw(st.integers(1, 7))
    coords = data.draw(st.lists(st.integers(0, 4), min_size=npts, max_size=npts))
    weights = data.draw(st.lists(st.integers(0, 3), min_size=npts, max_size=npts))
    if not any(weights):
        weights[0] = 1
    denominator = data.draw(st.integers(1, 6))
    space = MetricSpace([F(w, sum(weights)) for w in weights],
                        matrix=[[F(abs(a - b), denominator) for b in coords] for a in coords])
    n = data.draw(st.integers(1, 7))
    slate = data.draw(st.lists(st.integers(0, npts - 1), min_size=n, max_size=n))
    vec = parse_family(data.draw(st.sampled_from(_SIX_FAMILIES))).score_vector(n)
    fast = run_election(space, slate, vec)
    naive = brute_force_outcome(space, slate, vec)
    assert fast.scores == naive.scores
    assert (fast.winner, fast.optimum) == (naive.winner, naive.optimum)
    assert (fast.winner_cost, fast.optimum_cost) == (naive.winner_cost, naive.optimum_cost)
    assert fast.distortion == naive.distortion
    assert all(isinstance(v, F) for v in (*fast.scores, fast.winner_cost, fast.optimum_cost))


def _derived_copy(space):
    matrix = space.matrix
    return MetricSpace(space.mass, block_fn=lambda i, j: matrix[i, j])


@pytest.mark.parametrize("space", [random_space(1, 20, "uniform-box-L2"),
                                   random_space(2, 8, "iid-unit-interval-distances")],
                         ids=["box", "iid"])
def test_duplicate_candidates_get_equal_costs(space):
    # a cost belongs to its location: duplicate candidates cost the same, and
    # on a stored space every cost is its location's sum in location order,
    # bit for bit what brute_force_outcome and social_cost sum
    floated = MetricSpace(space.mass, matrix=space.matrix)  # the float copy the kernel elects
    lone = Borda().score_vector(1)
    by_location = np.array([brute_force_outcome(floated, [loc], lone).winner_cost
                            for loc in range(space.npoints)])
    assert by_location.tobytes() == np.array([social_cost(floated, loc)
                                              for loc in range(space.npoints)]).tobytes()
    for source in (space, _derived_copy(space)):
        for n in range(1, 71):
            vec = Borda().score_vector(n)
            slates = montecarlo._slates(source, n, n, 0, 4)
            _, costs, _, optima = elections._elect(*elections._kernel_space(source, False),
                                                   vec.float_scores, slates)
            for slate, cost in zip(slates, costs):
                first = [slate.tolist().index(loc) for loc in slate]
                assert cost.tobytes() == cost[first].tobytes()
                if source is space:
                    assert cost.tobytes() == by_location[slate].tobytes()
            slate = slates[0]
            assert optima[0] == brute_force_outcome(source, slate, vec).optimum
            assert run_election(source, slate, vec).optimum == optima[0]


@pytest.mark.parametrize("npoints", [20, 300])
def test_derived_social_costs_are_election_costs(npoints):
    # a location's social cost on a derived space is its cost in an election
    # over every location, bit for bit, and the 1-median is its optimum
    space = _derived_copy(random_space(1, npoints, "uniform-box-L2"))
    vec = Plurality().score_vector(npoints)
    _, costs, _, optima = elections._elect(*elections._kernel_space(space, False),
                                           vec.float_scores, np.arange(npoints)[None])
    social = np.array([social_cost(space, loc) for loc in range(npoints)])
    assert social.tobytes() == costs[0].tobytes()
    assert one_median(space) == optima[0]


def test_read_only_derived_distances_elect_as_brute_force():
    # an election forms its cost terms in a pass's own distances: a
    # read-only block from block_fn is copied first, never written
    matrix = random_space(6, 40, "uniform-box-L2").matrix

    def read_only(i, j):
        block = matrix[i, j]
        block.flags.writeable = False
        return block

    space = MetricSpace(np.full(40, 1 / 40), block_fn=read_only)
    for n in (1, 5, 16, 70):
        slate = montecarlo.sample_candidates(space, n, 6, n)
        for family in ("plurality", "borda"):
            vec = parse_family(family).score_vector(n)
            assert run_election(space, slate, vec) == brute_force_outcome(space, slate, vec)
    assert social_cost(space, 7) == brute_force_outcome(space, [7], Borda().score_vector(1)).winner_cost


def _fortran_blocks(matrix):
    return lambda i, j: np.asfortranarray(matrix[i, j])


def test_fortran_ordered_matrices_elect_as_brute_force():
    # a matrix given in Fortran order is kept in C order, so each stored
    # cost sums its column in location order, and a block_fn's
    # Fortran-ordered blocks are copied to C order before a pass sums them
    for seed in range(6):
        box = random_space(seed, int(np.random.default_rng(seed).integers(2, 300)), "uniform-box-L2")
        fortran = MetricSpace(box.mass, matrix=np.asfortranarray(box.matrix))
        assert fortran.matrix.flags.c_contiguous
        derived = MetricSpace(box.mass, block_fn=_fortran_blocks(box.matrix))
        for n in (1, 2, 7):
            slate = montecarlo.sample_candidates(box, n, seed, 0)
            for family in ("plurality", "borda"):
                vec = parse_family(family).score_vector(n)
                want = brute_force_outcome(box, slate, vec)
                assert run_election(fortran, slate, vec) == want == run_election(box, slate, vec)
                assert run_election(derived, slate, vec) == want


@settings(max_examples=40, deadline=None)
@given(width=st.integers(1, 80),
       rows=st.one_of(st.sampled_from([1, 2, 8191, 8193, 20000]), st.integers(1, 20000)),
       seed=st.integers(0, 2**32), zeros=st.sampled_from([0.0, 0.3, 1.0]), random_partial=st.booleans())
@example(width=1, rows=8192, seed=1, zeros=0.3, random_partial=True)
@example(width=64, rows=8192, seed=2, zeros=0.3, random_partial=False)
def test_location_sum_adds_rows_in_order(width, rows, seed, zeros, random_partial):
    # einsum (or a lone column's cumsum) adds the rows' mass * distance
    # terms one row at a time after partial joins row 0, and writes no
    # other row of the pass
    rng = np.random.default_rng(seed)
    mass, dist = rng.random(rows), rng.random((rows, width)) + 0.5
    for values in (mass, dist):  # a share of +-0.0
        signed = rng.random(values.shape) < zeros
        values[signed] = rng.choice([0.0, -0.0], int(signed.sum()))
    partial = rng.random(width) * rows if random_partial else np.zeros(width)
    want = dist[0] * mass[0] + partial
    for i in range(1, rows):
        want = want + mass[i] * dist[i]
    pass_ = dist.copy()
    got = elections._location_sum(partial, mass, pass_)
    assert got.tobytes() == want.tobytes()
    assert pass_[1:].tobytes() == dist[1:].tobytes()


_MASS = 3 / 8192


def _masses(kind):
    mass = np.full(60, _MASS)
    if kind == "two-values":  # two runs of one mass each
        mass[30:] = 5 / 8192
    elif kind == "one-off":  # one mass unlike the first and last of its pass
        mass[5] = 7 / 8192
    elif kind == "signed-zero":  # a run of +0.0 holding a -0.0
        mass[:30], mass[12] = 0.0, -0.0
    return mass


@pytest.mark.parametrize("derived", [False, True], ids=["stored", "derived"])
@pytest.mark.parametrize("kind", ["equal", "two-values", "one-off", "signed-zero"])
@pytest.mark.parametrize("pass_rows, chunk_rows", [(10, None), (7, None), (10, 13)])
def test_equal_mass_passes_elect_as_brute_force(monkeypatch, derived, kind, pass_rows, chunk_rows):
    # a pass whose masses share one float64's bits takes its weights from a
    # tile built once per mass value and grown when a longer pass needs it;
    # seven-row passes straddle the two runs.  Masses and Borda's scores at
    # n = 9 are dyadic and distances integers, so every sum is exact and
    # the summation blocks (chunk_rows) change no bit
    coords = np.arange(60) // 3
    matrix = np.abs(coords[:, None] - coords[None, :]).astype(float)
    mass = _masses(kind)
    space = MetricSpace(mass, block_fn=lambda i, j: matrix[i, j]) if derived else MetricSpace(mass, matrix=matrix)
    monkeypatch.setattr(elections, "_PASS_ELEMENTS", pass_rows * 9)
    if chunk_rows:
        monkeypatch.setattr(elections, "_CHUNK_ROWS", chunk_rows)
    slate = [0, 20, 20, 40, 59, 7, 33, 33, 50]
    for family in ("plurality", "borda"):
        vec = parse_family(family).score_vector(9)
        assert run_election(space, slate, vec) == brute_force_outcome(space, slate, vec)


def test_stored_lookups_gather_into_the_workspace():
    # a stored election gathers its candidates' ranks into a workspace
    # buffer, with the slate checked once per election instead of by take,
    # which allocated a pass of ranks (300 x 64 int32, 75 KiB) per call
    for space, exact in ((random_space(3, 300, "uniform-box-L2"), False),
                         (random_space(3, 40, "iid-unit-interval-distances"), True)):
        lookup, mass, costs = elections._kernel_space(space, exact)
        cols = np.r_[3, 3, space.npoints - 1, np.arange(61) % space.npoints]
        table = space.scaled_ranks if exact else space.ranks
        assert np.array_equal(lookup(0, space.npoints, cols), table[:, cols])
        tracemalloc.start()
        try:
            lookup(0, space.npoints, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024
        scores = np.array([1, 0], dtype=object) if exact else np.array([1.0, 0.0])
        for bad in ([0, space.npoints], [-1, 0]):
            with pytest.raises(IndexError):
                elections._elect(lookup, mass, costs, scores, np.array([bad]))


def test_rankings_reject_bad_slate(line_space):
    with pytest.raises(ValueError):
        rankings(line_space, [0, 5])


def test_run_election_worked_example(line_space):
    out = run_election(line_space, [0, 1, 2], Borda().score_vector(3))
    assert out.scores == (F(13, 20), F(13, 20), F(1, 5))
    assert out.winner == 0  # score tie with candidate 1, lowest index wins
    assert out.optimum == 0
    assert out.winner_cost == F(9, 10)
    assert out.optimum_cost == F(9, 10)
    assert out.distortion == 1


def test_run_election_matches_brute_force_on_worked_example(line_space):
    vec = Borda().score_vector(3)
    fast = run_election(line_space, [0, 1, 2], vec)
    naive = brute_force_outcome(line_space, [0, 1, 2], vec)
    assert fast.scores == naive.scores
    assert (fast.winner, fast.optimum) == (naive.winner, naive.optimum)
    assert fast.distortion == naive.distortion


def test_single_candidate_distortion_one(line_space):
    out = run_election(line_space, [2], Borda().score_vector(1))
    assert out.distortion == 1 and out.winner == 0


def test_colocated_slate_distortion_one(line_space):
    out = run_election(line_space, [1, 1, 1], Plurality().score_vector(3))
    assert out.distortion == 1


def test_vector_length_mismatch(line_space):
    with pytest.raises(ValueError):
        run_election(line_space, [0, 1], Borda().score_vector(3))


def test_zero_cost_policies():
    space = MetricSpace([F(1), F(0)], matrix=[[0, 1], [1, 0]])
    # winner and optimum both at the all-mass point: distortion 1
    out = run_election(space, [0, 1], Plurality().score_vector(2))
    assert out.distortion == 1 and not out.infinite
    # veto hands the win to a colocated pair away from the mass: infinite
    out = run_election(space, [1, 1, 0], Veto().score_vector(3))
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
        vec = Borda().score_vector(4)
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
    vec = Borda().score_vector(3)
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
        out = run_election(space, slate, fam.score_vector(4))
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
        vec = parse_family(case["family"]).score_vector(len(case["slate"]))
        got = _hexed(run_election(golden_instance, case["slate"], vec))
        want = (case["scores"], case["winner"], case["optimum"],
                case["winner_cost"], case["optimum_cost"])
        assert got == want, case["family"]


def _golden_part(space, cases, start, count):
    return [_hexed(run_election(space, c["slate"], parse_family(c["family"]).score_vector(16)))
            for c in cases[start:start + count]]


def test_float_kernel_bits_do_not_depend_on_jobs(golden_instance):
    # elections in fan-out workers sum every 65536 x 16 block to the
    # recorded bits, as the calling process does
    cases = json.loads(GOLDEN.read_text())["cases"]
    parts = _fan_out(_golden_part, (golden_instance, cases), 0, len(cases), jobs=2)
    assert len(parts) == 2
    want = [(c["scores"], c["winner"], c["optimum"], c["winner_cost"], c["optimum_cost"])
            for c in cases]
    assert [outcome for part in parts for outcome in part] == want


@pytest.mark.parametrize("pass_rows", [7, 1000, 4096, 1 << 36])
def test_sub_block_size_changes_no_bit(golden_instance, monkeypatch, pass_rows):
    # 16 candidates: budgets of 7 * n elements up to 2^40 (whole blocks)
    slate = json.loads(GOLDEN.read_text())["cases"][-1]["slate"]
    want = {f: run_election(golden_instance, slate, parse_family(f).score_vector(16))
            for f in ("plurality", "borda")}
    monkeypatch.setattr(elections, "_PASS_ELEMENTS", pass_rows * 16)
    for f, outcome in want.items():
        assert run_election(golden_instance, slate, parse_family(f).score_vector(16)) == outcome


def _clear_workspace():
    vars(elections._WORKSPACE).clear()


@pytest.mark.parametrize("family", ["plurality", "borda"])
def test_election_memory_is_pass_sized(golden_instance, family):
    # 16 candidates on 70512 locations: buffers of 65536-location blocks
    # peaked at 12 and 26 MiB; pass-sized ones, allocated afresh into an
    # empty workspace, stay below 8 MiB, and the workspace keeps at most
    # four buffers of 2^17 eight-byte elements
    slate = json.loads(GOLDEN.read_text())["cases"][-1]["slate"]
    vec = parse_family(family).score_vector(16)
    run_election(golden_instance, slate, vec)
    _clear_workspace()
    tracemalloc.start()
    try:
        run_election(golden_instance, slate, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    held = sum(buffer.nbytes for buffer in vars(elections._WORKSPACE).values())
    assert 0 < held <= 4 * 8 * 2**17 + 1024


def test_warm_estimate_allocates_no_pass_buffer():
    # the workspace holds every pass buffer after one estimate: when each
    # election allocated its own, the second estimate peaked at 2472 KiB
    space = random_space(3, 20, "uniform-box-L2")
    montecarlo.estimate_distortion(space, Borda(), 64, 200, 1)
    tracemalloc.start()
    try:
        montecarlo.estimate_distortion(space, Borda(), 64, 200, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_workspace_carries_no_state_between_elections(monkeypatch):
    # tiny passes: every election reuses, and n = 64 grows, buffers that
    # another shape, dtype or rule filled last
    monkeypatch.setattr(elections, "_PASS_ELEMENTS", 50)
    box = random_space(4, 20, "uniform-box-L2")
    cases = [(space, montecarlo.sample_candidates(space, n, 7, n), family.score_vector(n))
             for space in (box, random_space(4, 7, "iid-unit-interval-distances"), _derived_copy(box))
             for n in (1, 2, 3, 64) for family in (Plurality(), Borda())]
    for sequence in (cases, cases[::-1]):
        outcomes = [run_election(*case) for case in sequence]
        for case, outcome in zip(sequence, outcomes):
            _clear_workspace()
            assert run_election(*case) == outcome


def test_threads_keep_their_own_workspace():
    spaces = [random_space(seed, 20, "uniform-box-L2") for seed in (1, 2)]
    runs = [(spaces[i % 2], (Plurality(), Borda())[i // 2 % 2], (3, 64)[i // 4 % 2], 150, i)
            for i in range(16)]

    def estimate(run):
        return montecarlo.estimate_distortion(*run)

    serial = [estimate(run) for run in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-election
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(estimate, runs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    for a, b in zip(threaded, serial):
        assert np.array_equal(a.distortions, b.distortions)
        assert np.array_equal(a.winner_distances, b.winner_distances)


@pytest.mark.parametrize("pass_rows", [None, 1000])
def test_lone_column_cost_sums_each_block_then_the_blocks(golden_instance, monkeypatch, pass_rows):
    # a one-location cost is a lone column: a cumsum over each block of
    # elections._CHUNK_ROWS rows, carried across passes, then block by block
    space = golden_instance
    if pass_rows:
        monkeypatch.setattr(elections, "_PASS_ELEMENTS", pass_rows)
    for location in (0, 1, 69999, 70000, space.npoints - 1):
        terms = space.mass * space.dist_block(np.arange(space.npoints), location)
        want = 0.0
        for start in range(0, space.npoints, elections._CHUNK_ROWS):
            want += np.cumsum(terms[start : start + elections._CHUNK_ROWS])[-1]
        assert social_cost(space, location).hex() == want.hex()


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

    def spy(dist, order, *args):  # records whether only the top choice is ranked
        seen.append(order.shape[-1] == 1)
        return original(dist, order, *args)

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
        vec = Plurality().score_vector(len(slate))
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


# packed-key ranking: every order equals the stable argsort

_KEY_CAP = elections._KEY_MAX_N
_KEY_MIN = elections._KEY_MIN_N
_KEY_WIDTHS = [_KEY_MIN - 1, _KEY_MIN, _KEY_MIN + 1, 32, 33, 64, 65, _KEY_CAP, _KEY_CAP + 1]


def _ranked(dist):
    # every candidate at its own location: each tie between two is checked
    order = np.empty(dist.shape, np.int64)
    elections._rank(dist, order, np.arange(dist.shape[-1])[None])
    return order


def _cleared_bit_variants(x, count):
    """``count`` floats equal to x but for their lowest bits, which hold
    0 .. count - 1: they differ only in bits that every key clears."""
    bits = np.float64(x).view(np.uint64) & ~np.uint64(_KEY_CAP - 1)
    return (bits | np.arange(count, dtype=np.uint64)).view(np.float64)


def _spy_key_rank(monkeypatch):
    repaired = []  # rows handed back to the stable argsort, per call
    original = elections._key_rank

    def spy(dist, order, *args):
        rows = original(dist, order, *args)
        repaired.append(len(rows))
        return rows

    monkeypatch.setattr(elections, "_key_rank", spy)
    return repaired


# each draws a list of pool values
_TIED = st.one_of(
    st.integers(0, 16).map(lambda k: [k / 8]),  # dyadic: exact ties between distinct points
    st.sampled_from([[0.0], [-0.0]]),
    st.floats(0.25, 4.0).map(lambda x: list(_cleared_bit_variants(x, 8))),
)
_ODD = st.sampled_from([[math.nan], [math.inf], [-math.inf], [-1.0], [-0.5]])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_key_ranking_equals_stable_argsort(data):
    n = data.draw(st.sampled_from(_KEY_WIDTHS))
    shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)), n)
    values = st.one_of(_TIED, _ODD) if data.draw(st.booleans()) else _TIED
    pool = sum(data.draw(st.lists(values, min_size=1, max_size=6)), [])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    # distinct random distances, with a share of them (none, some or
    # nearly all) drawn from the pool instead: duplicate columns and ties
    dist = rng.random(shape) + 1.0
    share = data.draw(st.sampled_from([0.0, 0.1, 0.9]))
    mask = rng.random(shape) < share
    dist[mask] = rng.choice(pool, size=int(mask.sum()))
    if data.draw(st.booleans()):  # a duplicated candidate column
        dist[..., rng.integers(n)] = dist[..., rng.integers(n)]
    assert np.array_equal(_ranked(dist), np.argsort(dist, axis=-1, kind="stable"))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_duplicate_aware_key_ranking_equals_stable_argsort(data):
    # rows cycle through several slates, each with its own locations: the
    # candidates at one location share their distances bit for bit, and
    # pool values (cleared-bit variants, +-0, NaN, infinities, negatives)
    # tie distinct locations
    n = data.draw(st.sampled_from(_KEY_WIDTHS[1:-1]))
    count, rows = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    sites = data.draw(st.integers(1, n))
    locations = rng.integers(0, sites, (count, n))
    at_site = rng.random((rows, count, sites)) + 1.0
    values = st.one_of(_TIED, _ODD) if data.draw(st.booleans()) else _TIED
    pool = sum(data.draw(st.lists(values, min_size=1, max_size=6)), [])
    mask = rng.random(at_site.shape) < data.draw(st.sampled_from([0.0, 0.1, 0.9]))
    at_site[mask] = rng.choice(pool, size=int(mask.sum()))
    dist = np.ascontiguousarray(at_site[:, np.arange(count)[:, None], locations])
    order = np.empty(dist.shape, np.int64)
    elections._rank(dist, order, locations)
    assert np.array_equal(order, np.argsort(dist, axis=-1, kind="stable"))


def test_duplicate_far_atom_needs_no_key_check(monkeypatch):
    # near candidates and one far atom twice: the twins tie bit for bit and
    # every other distance is apart, so the keys prove every row's order.
    # No row goes to the argsort, and none is re-read in key order, which
    # would hold a temporary of the pass's size.  Every row flags its twins'
    # tie: the filter gathers narrow location labels, which kept the peak
    # at 16% of the pass where 2-D label gathers took 38%
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        params = solve_parameters(1.25, n_override=16, big_n_override=4096, m_atoms=512)
    space = build_instance(params, seed=5).space
    slate = np.r_[np.arange(150, 4096, 300), [4096 + 9] * 2]
    assert slate.size == 16 >= _KEY_MIN
    vec = Borda().score_vector(16)
    run_election(space, slate, vec)  # grows the thread's workspace
    seen = []
    original = elections._key_rank

    def spy(dist, order, *args):
        tracemalloc.start()
        try:
            rows = original(dist, order, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen.append((len(rows), peak < dist.nbytes / 5))
        return rows

    monkeypatch.setattr(elections, "_key_rank", spy)
    rows = np.arange(space.npoints)
    want = np.argsort(space.dist_block(rows[:, None], slate[None]), axis=-1, kind="stable")
    assert np.array_equal(rankings(space, slate), want)
    run_election(space, slate, vec)
    assert seen and set(seen) == {(0, True)}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, math.inf, math.nan]), min_size=_KEY_MIN, max_size=40))
@example([0.0, 0.0, -0.0, -0.0, 0.0, 0.0])
def test_signed_rows_take_the_stable_argsort(row):
    # a -0.0 keys after the +0.0 that it equals, so reading a row with a
    # sign bit in key order proves nothing: such rows take the argsort, also
    # when candidates with one distance's bits share a location
    dist = np.array([row, np.abs(row)])
    labels = np.unique(dist[0].view(np.uint64), return_inverse=True)[1]
    for locations in (np.arange(len(row)), labels):
        order = np.empty(dist.shape, np.int64)
        elections._rank(dist, order, locations[None])
        assert np.array_equal(order, np.argsort(dist, axis=-1, kind="stable"))


def test_key_ranking_of_signed_zeros_and_nan_payloads():
    # -0.0 ties +0.0, so a row of zeros ranks by index; NaNs rank last and
    # by index whatever their payload bits, which keys would sort by
    dist = np.random.default_rng(40).random((3, 40))
    dist[0] = 0.0
    dist[0, ::2] = -0.0
    payloads = np.float64(math.nan).view(np.uint64) | np.array([1 << 40, 1, 1 << 20], np.uint64)
    dist[1:, [3, 9, 30]] = payloads.view(np.float64)
    dist[2, 5] = math.inf
    assert np.array_equal(_ranked(dist), np.argsort(dist, axis=-1, kind="stable"))


@pytest.mark.parametrize("n", [_KEY_MIN, 12, 32, 33, 64, 65, _KEY_CAP])
def test_key_ranking_repairs_ties_in_cleared_bits(monkeypatch, n):
    repaired = _spy_key_rank(monkeypatch)
    variants = _cleared_bit_variants(1.5, n)
    dist = np.stack([
        variants[::-1],  # one key bucket, index order against distance order
        variants,  # one key bucket in distance order: checked, kept
        np.random.default_rng(n).random(n),  # no shared bucket: not checked
    ])
    assert np.array_equal(_ranked(dist), np.argsort(dist, axis=-1, kind="stable"))
    assert repaired == [1]


@pytest.mark.parametrize("n, dtype, keyed", [
    (_KEY_MIN - 1, float, False),
    (_KEY_MIN, float, True),
    (12, float, True),
    (_KEY_CAP + 1, float, False),
    (64, object, False),
])
def test_only_float_rows_in_the_key_range_take_keys(monkeypatch, n, dtype, keyed):
    repaired = _spy_key_rank(monkeypatch)
    ticks = np.random.default_rng(n).integers(0, 5, (3, n))
    if dtype is object:
        dist = np.array([[F(int(t), 3) for t in row] for row in ticks], dtype)
    else:
        dist = ticks / 4.0
    assert np.array_equal(_ranked(dist), np.argsort(dist, axis=-1, kind="stable"))
    assert len(repaired) == int(keyed)


# stored spaces: elections rank the dense ranks of the distances

# each draws one distance: dyadic values tie between distinct points
_STORED = st.one_of(st.integers(0, 6).map(lambda k: k / 8), st.sampled_from([0.0, -0.0, math.inf]))


def _same(a, b):  # outcomes equal, a NaN distortion (inf / inf) equal to itself
    return repr(a) == repr(b)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_stored_rankings_and_elections_follow_the_distances(data):
    npts = data.draw(st.integers(1, 6))
    values = data.draw(st.lists(_STORED, min_size=npts * npts, max_size=npts * npts))
    weights = data.draw(st.lists(st.integers(1, 3), min_size=npts, max_size=npts))
    if data.draw(st.booleans()):  # exact: the same values, infinities made 2
        rows = [[F(v) if math.isfinite(v) else F(2) for v in values[i : i + npts]]
                for i in range(0, npts * npts, npts)]
        space = MetricSpace([F(w, sum(weights)) for w in weights], matrix=rows)
        dist = np.array(rows, dtype=object)
    else:
        dist = np.array(values).reshape(npts, npts)
        space = MetricSpace(np.array(weights) / 8.0, matrix=dist)
    n = data.draw(st.integers(1, 40))
    slate = data.draw(st.lists(st.integers(0, npts - 1), min_size=n, max_size=n))
    assert np.array_equal(rankings(space, slate), np.argsort(dist[:, slate], axis=-1, kind="stable"))
    vec = parse_family(data.draw(st.sampled_from(_SIX_FAMILIES))).score_vector(n)
    assert _same(run_election(space, slate, vec), brute_force_outcome(space, slate, vec))


def test_exact_ranks_keep_apart_what_floats_round_together():
    # d(0, 1) = 1 and d(0, 2) = 1 + 2^-60 are one float: the exact kernel
    # ranks them apart, the float path (every estimate) ties them by index
    rows = [[F(0), F(1), 1 + F(1, 2**60)], [F(1), F(0), F(1)], [1 + F(1, 2**60), F(1), F(0)]]
    space = MetricSpace([F(1, 2), F(1, 8), F(3, 8)], matrix=rows)
    assert space.ranks[0, 1] == space.ranks[0, 2] and space.scaled_ranks[0, 1] < space.scaled_ranks[0, 2]
    assert rankings(space, [2, 1])[0].tolist() == [1, 0]
    vec = Plurality().score_vector(2)
    exact, floated = run_election(space, [2, 1], vec), run_election(space, [2, 1], vec, exact=False)
    assert (exact.winner, floated.winner) == (1, 0) and floated.distortion == 1.0 < exact.distortion
    est = montecarlo.estimate_distortion(space, Plurality(), 2, 64, 3)
    tied = 0
    for t in range(64):
        slate = montecarlo.sample_candidates(space, 2, 3, t)
        assert est.distortions[t] == run_election(space, slate, vec, exact=False).distortion
        tied += slate.tolist() == [2, 1]
    assert tied  # some trial elects the slate whose exact winner differs


def _spy_calls(monkeypatch):
    calls = []

    def spy(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    monkeypatch.setattr(MetricSpace, "dist_block", spy("dist_block", MetricSpace.dist_block))
    monkeypatch.setattr(elections, "_key_rank", spy("_key_rank", elections._key_rank))
    return calls


@pytest.mark.parametrize("source", ["float", "exact", "derived"])
def test_only_derived_elections_read_distances(monkeypatch, source):
    space = random_space(5, 20, "iid-unit-interval-distances" if source == "exact" else "uniform-box-L2")
    if source == "derived":
        space = _derived_copy(space)
    calls = _spy_calls(monkeypatch)
    slate = montecarlo.sample_candidates(space, 40, 1, 0)
    run_election(space, slate, Borda().score_vector(40))
    rankings(space, slate)
    montecarlo.estimate_distortion(space, Borda(), 40, 8, 1)
    if source == "derived":
        assert {"dist_block", "_key_rank"} <= set(calls)
    else:
        assert calls == []


def test_stored_plurality_follows_rankings_past_nan():
    # reachable only unvalidated: NaN ranks last, as rankings() puts it, so
    # the voter at 0 votes for the candidate at 2, not the NaN at 1
    nan = math.nan
    space = MetricSpace(np.array([0.5, 0.25, 0.25]),
                        matrix=np.array([[0.0, nan, 1.0], [nan, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    assert space.ranks.dtype == np.int8 and space.ranks[0, 1] == space.ranks[1, 0] == space.ranks.max()
    slate = [1, 2]
    table = rankings(space, slate)
    assert table[0].tolist() == [1, 0]
    scores = np.zeros(2)
    np.add.at(scores, table[:, 0], space.mass)
    out = run_election(space, slate, Plurality().score_vector(2))
    assert out.scores == tuple(scores) == (0.25, 0.75) and out.winner == 1
