import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricvoting import (
    brute_force_outcome,
    check_event,
    build_instance,
    run_election,
    run_experiment,
    solve_parameters,
    validate,
)
from metricvoting import elections
from metricvoting.adversarial import TwoClusterDistance
from metricvoting.elections import rankings
from metricvoting.montecarlo import sample_candidates
from metricvoting.scoring import Borda, Plurality


def small_params(n=12, big_n=256, m_atoms=32, rho=1.25):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_parameters(rho, n_override=n, big_n_override=big_n, m_atoms=m_atoms)


def test_solve_parameters_exact_at_five_quarters():
    p = solve_parameters(1.25)
    assert p.far_mass == 0.25
    assert p.near_mass == 0.75
    assert p.cluster_distance == 5.0
    assert p.min_candidates == 64
    assert p.n_candidates == 64
    assert p.near_locations == 64**3
    # mu is the larger root of 4u(1-u) = alpha(1-alpha), plus a margin
    root = (1 + math.sqrt(1 - 0.75 * 0.25)) / 2
    assert p.near_candidate_cap == pytest.approx(root + 1e-6, abs=1e-12)
    assert 4 * p.near_candidate_cap * (1 - p.near_candidate_cap) < 0.75 * 0.25
    assert p.near_candidate_cap >= 0.5 + p.near_mass / 2


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_solve_parameters_identity_general():
    # large rho too, where sqrt(lin^2 + 8) - lin would cancel
    for rho in (1.1, 1.25, 2.0, 3.5, 5.0, 9.19, 20.0, 100.0, 1000.0):
        p = solve_parameters(rho, n_override=8, big_n_override=64, m_atoms=16)
        b = p.far_mass
        assert 0 < b < 0.5
        assert (2 * b + 1) * (1 - b) / (3 * b) == pytest.approx(2 * rho - 1, abs=1e-12)
        assert p.rank_spacing * p.near_locations < 1 / (4 * p.far_atoms)


def test_solve_parameters_rho_two():
    assert solve_parameters(2.0).far_mass == pytest.approx(0.1213203435596424, abs=1e-12)


def test_solve_parameters_rejects_bad_rho():
    with pytest.raises(ValueError):
        solve_parameters(1.0)


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
def test_solve_parameters_rejects_non_finite_rho(rho):
    with pytest.raises(ValueError, match="1 < rho < inf"):
        solve_parameters(rho)


@pytest.mark.parametrize("big_n, m_atoms", [(2**32 + 1, 512), (64, 2**32 + 1)])
def test_solve_parameters_rejects_sizes_beyond_the_hash_key(big_n, m_atoms):
    # distance hashes pack two location indices of up to 32 bits each
    with pytest.raises(ValueError, match="at most 2\\^32"):
        solve_parameters(1.25, n_override=64, big_n_override=big_n, m_atoms=m_atoms)
    assert solve_parameters(1.25, n_override=64, big_n_override=2**32).near_locations == 2**32


def test_small_n_override_warns():
    with pytest.warns(UserWarning, match="floor"):
        solve_parameters(1.25, n_override=16)


def test_instance_distance_ranges_and_determinism():
    params = small_params()
    inst = build_instance(params, seed=3)
    again = build_instance(params, seed=3)
    other = build_instance(params, seed=4)
    rng = np.random.default_rng(0)
    near = params.near_locations
    a = rng.integers(0, near, 400)
    b = rng.integers(0, near, 400)
    fa = rng.integers(near, near + params.far_atoms, 400)

    within = inst.space.dist_block(a, b)
    off_diag = within[a != b]
    assert ((off_diag >= 1.0) & (off_diag <= 2.0)).all()
    assert np.array_equal(within, again.space.dist_block(a, b))
    assert not np.array_equal(within, other.space.dist_block(a, b))

    cross = inst.space.dist_block(a, fa)
    d = params.cluster_distance
    assert ((cross >= d) & (cross <= d + 1)).all()
    assert np.array_equal(cross, inst.space.dist_block(fa, a))  # symmetry

    far_pair = inst.space.dist_block(fa[:200], fa[200:])
    x = 1.0 + (np.arange(params.far_atoms) + 0.5) / params.far_atoms
    expect = np.minimum(x[fa[:200] - near], x[fa[200:] - near])
    expect[fa[:200] == fa[200:]] = 0.0
    assert np.array_equal(far_pair, expect)


def test_instance_is_metric_by_sampling():
    inst = build_instance(small_params(), seed=5)
    assert validate(inst.space).ok


def test_near_voters_order_far_candidates_by_position():
    # the perturbation never overturns the atom ordering: every near voter
    # ranks far candidates by ascending atom coordinate
    params = small_params()
    inst = build_instance(params, seed=7)
    near = params.near_locations
    atoms = np.array([3, 9, 17, 30])
    voters = np.random.default_rng(1).integers(0, near, 50)
    dist = inst.space.dist_block(voters[:, None], (near + atoms)[None, :])
    assert (np.diff(dist, axis=1) > 0).all()


def test_far_voters_prefer_lower_atoms_and_random_near_order():
    params = small_params(n=8, big_n=64, m_atoms=32)
    inst = build_instance(params, seed=2)
    near = params.near_locations
    # slate: three far candidates (atoms 4, 11, 25) and three near candidates
    slate = [near + 4, near + 11, near + 25, 5, 17, 40]
    table = rankings(inst.space, slate)
    voter = near + 20  # far voter at atom 20
    row = table[voter].tolist()
    # candidates on atoms below 20 come first, by ascending coordinate, then
    # the tied candidates above, then every near candidate
    assert row[:2] == [0, 1]
    assert set(row[3:]) == {3, 4, 5}
    # near-candidate order seen by far atoms is the per-atom hashed
    # permutation: it varies across atoms
    orders = {tuple(t[3:]) for t in (table[near + j].tolist() for j in range(32))}
    assert len(orders) > 1


def test_cost_bounds_on_instance():
    params = small_params()
    inst = build_instance(params, seed=11)
    space = inst.space
    near = params.near_locations
    alpha, beta = params.near_mass, params.far_mass
    d = params.cluster_distance
    all_pts = np.arange(space.npoints)
    for cand in [0, 57, 200, near + 3, near + 31]:
        cost = float(space.mass @ space.dist_block(all_pts, np.full(space.npoints, cand)))
        if cand >= near:
            assert cost >= alpha * d  # every near voter is at least D away
        else:
            assert cost <= alpha * 2 + beta * (d + 1) + 1e-9  # = 3 at rho = 5/4


def test_distortion_accounting_identity():
    p = solve_parameters(1.25)
    assert (1 - p.far_mass) * (p.cluster_distance + 1) / 3 == 1.5 == 2 * 1.25 - 1


def test_check_event_cases():
    params = small_params(n=8)
    near = params.near_locations
    all_near = check_event(params, [1, 2, 3, 4, 5, 6, 7, 8])
    assert not all_near.far_fraction_ok and not all_near.occurred
    assert all_near.no_colocated_near_candidates

    dup = check_event(params, [1, 1, 3, 4, 5, 6, 7, near + 5])
    assert not dup.no_colocated_near_candidates

    adjacent = check_event(params, [1, 2, 3, 4, 5, 6, near + 5, near + 6])
    assert not adjacent.far_gaps_ok
    same_atom = check_event(params, [1, 2, 3, 4, 5, 6, near + 5, near + 5])
    assert not same_atom.far_gaps_ok

    good = check_event(params, [1, 2, 3, 4, 5, 6, near + 5, near + 9])
    assert good.occurred


def test_check_event_two_candidates():
    params = small_params(n=2)
    status = check_event(params, [3, params.near_locations + 7])
    assert status.occurred


def test_generic_and_bruteforce_agree_on_derived_space():
    # ties the chunked block-function path to naive scalar evaluation
    params = small_params(n=6, big_n=48, m_atoms=8)
    inst = build_instance(params, seed=13)
    slate = sample_candidates(inst.space, 6, seed=13, trial_index=0)
    vec = Plurality().score_vector(6)
    fast = run_election(inst.space, slate, vec)
    naive = brute_force_outcome(inst.space, slate, vec)
    assert fast.winner == naive.winner
    assert fast.optimum == naive.optimum
    np.testing.assert_allclose(fast.scores, naive.scores, atol=1e-12)
    np.testing.assert_allclose(float(fast.distortion), float(naive.distortion), atol=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_small_experiment_runs_clean():
    report = run_experiment(1.25, Plurality(), trials=40, seed=21,
                            n_override=16, big_n_override=512, m_atoms=64)
    assert report.trials == 40 and len(report.records) == 40
    assert 0 <= report.pr_event <= 1
    assert report.pr_far_winner > 0.5  # the far cluster does take over
    far = [r for r in report.records if r.winner_from_far]
    assert all(r.distortion >= 1.2 for r in far)
    assert report.mean_distortion >= 1.0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_experiment_parallel_matches_serial():
    kwargs = dict(n_override=12, big_n_override=256, m_atoms=32)
    serial = run_experiment(1.25, Plurality(), 12, seed=3, jobs=1, **kwargs)
    parallel = run_experiment(1.25, Plurality(), 12, seed=3, jobs=2, **kwargs)
    assert serial.records == parallel.records


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_experiment_uneven_fan_out_matches_serial():
    # 5 trials over 2 workers: ranges of 3 and 2
    kwargs = dict(n_override=12, big_n_override=256, m_atoms=32)
    serial = run_experiment(1.25, Plurality(), 5, seed=8, jobs=1, **kwargs)
    parallel = run_experiment(1.25, Plurality(), 5, seed=8, jobs=2, **kwargs)
    assert [r.trial for r in serial.records] == list(range(5))
    assert serial.records == parallel.records


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_experiment_costs_do_not_depend_on_jobs():
    # 70512 locations and n = 12: a worker and the calling process sum each
    # candidate's costs to the same bits, and so does a lone election
    kwargs = dict(n_override=12, big_n_override=70000)
    serial = run_experiment(1.25, Borda(), 8, seed=3, jobs=1, **kwargs)
    parallel = run_experiment(1.25, Borda(), 8, seed=3, jobs=2, **kwargs)
    assert serial.records == parallel.records
    space, vec = build_instance(serial.params, 3).space, Borda().score_vector(12)
    for rec in serial.records:  # a lone election is its trial, bit for bit
        lone = run_election(space, sample_candidates(space, 12, 3, rec.trial), vec)
        assert lone.distortion == rec.distortion


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("budget", [1, 1 << 40])
def test_experiment_batch_budget_changes_no_bit(monkeypatch, budget):
    # 288 locations: trials are elected in batches
    kwargs = dict(n_override=12, big_n_override=256, m_atoms=32)
    want = {f: run_experiment(1.25, f, 9, seed=4, **kwargs).records for f in (Plurality(), Borda())}
    monkeypatch.setattr(elections, "_PASS_ELEMENTS", budget)
    for family, records in want.items():
        for jobs in (1, 2):
            assert run_experiment(1.25, family, 9, seed=4, jobs=jobs, **kwargs).records == records


def test_premise_warning_for_borda_control():
    with pytest.warns(UserWarning, match="does not apply"):
        report = run_experiment(1.25, Borda(), trials=4, seed=2,
                                n_override=64, big_n_override=256, m_atoms=32)
    assert report.condition_holds_at_cap
    # plurality at n = 64 violates the inequality at y = mu: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        report = run_experiment(1.25, Plurality(), trials=4, seed=2,
                                n_override=64, big_n_override=256, m_atoms=32)
    assert not report.condition_holds_at_cap


_M64 = (1 << 64) - 1


def _splitmix_uniform(word, a, b):
    """pair_uniform written out on Python ints, one pair at a time."""
    z = (((a << 32) | b) ^ int(word)) & _M64
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


def _pair_distance(block, i, j):
    """One two-cluster distance from its defining formula."""
    n, pos = block.near_count, block.atom_positions
    if i == j:
        return 0.0
    if i < n and j < n:
        return 1.0 + _splitmix_uniform(block.word_near, min(i, j), max(i, j))
    if i >= n and j >= n:
        return float(min(pos[i - n], pos[j - n]))
    omega, atom = (i, j - n) if i < n else (j, i - n)
    return block.cluster_distance + pos[atom] / 4.0 + block.perturb_scale * _splitmix_uniform(
        block.word_cross, atom, omega
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derived_distance_paths_agree_bit_for_bit(data):
    params = small_params(n=8, big_n=40, m_atoms=6)
    space = build_instance(params, seed=data.draw(st.integers(0, 2**31 - 1))).space
    block = space._block_fn
    npts = space.npoints
    # a run of rows that may straddle near_count, and columns with repeats,
    # far points and points inside the run (diagonal entries)
    lo = data.draw(st.integers(0, npts - 1))
    hi = data.draw(st.integers(lo + 1, npts))
    rows = np.arange(lo, hi)
    cols = np.array(data.draw(st.lists(st.integers(0, npts - 1), min_size=1, max_size=10)))
    outer = space.dist_block(rows[:, None], cols[None, :])
    rr, cc = np.broadcast_arrays(rows[:, None], cols[None, :])
    flat = space.dist_block(rr.ravel(), cc.ravel()).reshape(rr.shape)
    reference = np.array([[_pair_distance(block, int(i), int(j)) for j in cols] for i in rows])
    assert outer.tobytes() == reference.tobytes()
    assert flat.tobytes() == reference.tobytes()
    # a batched election's call: (1, rows, 1) x (T, 1, n) indices
    stacked = space.dist_block(rows[None, :, None], np.stack([cols, cols[::-1]])[:, None, :])
    assert stacked.tobytes() == np.stack([reference, reference[:, ::-1]]).tobytes()
    # rows out of order (far rows first) leave the fast path, same bits
    shuffled = data.draw(st.permutations(rows.tolist()))
    again = space.dist_block(np.array(shuffled)[:, None], cols[None, :])
    assert again.tobytes() == reference[np.array(shuffled) - lo].tobytes()
    # 0-d calls of every kind: near, cross both ways, far, and the diagonal
    near, atom = block.near_count, data.draw(st.integers(block.near_count, npts - 1))
    a, b = data.draw(st.integers(0, near - 1)), data.draw(st.integers(0, near - 1))
    for i, j in [(a, b), (a, atom), (atom, a), (atom, npts - 1), (npts - 1, atom), (a, a), (atom, atom)]:
        got = space.dist_block(i, j)
        assert got.shape == () and got.tobytes() == np.float64(_pair_distance(block, i, j)).tobytes()
    # a whole row, from a near point and from a far one
    for i in (a, atom):
        row = np.array([_pair_distance(block, i, j) for j in range(npts)])
        assert space.distances_from(i).tobytes() == row.tobytes()


def test_distances_from_broadcasts_its_index():
    # a derived row passes its index as a scalar: the pair formula's chunks
    # hold about seven times the row, and an index array of the row's length
    # would add one more
    params = small_params(n=64, big_n=1 << 16, m_atoms=512)
    space = build_instance(params, seed=5).space
    cols = np.arange(space.npoints)
    for i in (12, space.npoints - 3):
        want = space.dist_block(np.full(space.npoints, i), cols)
        tracemalloc.start()
        try:
            row = space.distances_from(i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.tobytes() == want.tobytes()
        assert peak < 7.5 * row.nbytes


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_keyed_pass_agrees_with_pair_formula(data):
    # 48 far atoms against 64 near locations: a run of rows may start below
    # the atom count, so a cross key's atom can exceed its row
    params = small_params(n=8, big_n=64, m_atoms=48)
    space = build_instance(params, seed=data.draw(st.integers(0, 2**31 - 1))).space
    block = space._block_fn
    near, npts = block.near_count, space.npoints
    far = data.draw(st.lists(st.integers(near, npts - 1), max_size=4, unique=True))
    form = data.draw(st.sampled_from(["run", "mixed run", "sample", "shuffled"]))
    if "run" in form:  # a run of near rows: ascending, or its middle reversed
        start = data.draw(st.integers(0, near - 1))
        picked = list(range(start, data.draw(st.integers(start + 1, near))))
        if form == "mixed run":
            picked[1:-1] = picked[-2:0:-1]
    else:  # a sorted sample with gaps, or near rows in any order
        picked = sorted(data.draw(st.lists(st.integers(0, near - 1), min_size=1, max_size=24, unique=True)))
        if form == "shuffled":
            picked = data.draw(st.permutations(picked))
    rows = np.array(picked + sorted(far))
    # columns below, inside and above the near rows, repeats and far atoms
    lo, hi = int(rows[: len(picked)].min()), int(rows[: len(picked)].max())
    regions = [st.integers(lo, hi), st.integers(near, npts - 1), st.sampled_from(rows.tolist())]
    if lo > 0:
        regions.append(st.integers(0, lo - 1))
    if hi < near - 1:
        regions.append(st.integers(hi + 1, near - 1))
    cols = np.array(data.draw(st.lists(st.one_of(regions), min_size=1, max_size=12)))
    # a pass budget of a few elements splits the rows into chunks
    budget = data.draw(st.sampled_from([1, 40, 1 << 17, 1 << 17]))
    calls = []
    outer = TwoClusterDistance._outer

    def spy(self, *args):
        calls.append(args[2])
        return outer(self, *args)

    with mock.patch.object(TwoClusterDistance, "_outer", spy), \
            mock.patch.object(elections, "_PASS_ELEMENTS", budget):
        got = space.dist_block(rows[:, None], cols[None, :])
    # only an ascending run of rows takes the keyed pass; the rest take _pairs
    assert calls == ([len(picked)] if (np.diff(rows) == 1).all() else [])
    reference = np.array([[_pair_distance(block, int(i), int(j)) for j in cols] for i in rows])
    assert got.tobytes() == reference.tobytes()


def test_direct_outer_call_memory_is_one_output():
    # every location against a 64-candidate slate: the whole-block hash
    # held full-size temporaries (a peak of 3.3 times the output); in
    # pass-sized row chunks it holds the output and two chunk buffers (1.14)
    params = small_params(n=64, big_n=1 << 16, m_atoms=512)
    space = build_instance(params, seed=5).space
    slate = sample_candidates(space, 64, 5, 0)
    rows = np.arange(space.npoints)
    tracemalloc.start()
    try:
        got = space.dist_block(rows[:, None], slate[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * got.nbytes
    block = space._block_fn
    want = np.concatenate([block._pairs(rows[lo : lo + 2048, None], slate[None, :])
                           for lo in range(0, rows.size, 2048)])
    assert got.tobytes() == want.tobytes()
