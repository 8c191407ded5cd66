import ast
import math
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from metricvoting import (
    MetricSpace,
    load_space,
    one_median,
    outside_mass,
    random_space,
    save_space,
    social_cost,
    validate,
)
from metricvoting.spaces import SpaceFormatError, SpaceValidationError


def test_line_space_validates(line_space):
    assert validate(line_space).ok


def test_triangle_violation_witnessed():
    space = MetricSpace([F(1, 3)] * 3, matrix=[[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    report = validate(space)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert kinds == {"triangle"}
    witnesses = {v.witness for v in report.violations}
    assert (0, 1, 2) in witnesses


def _line30(far_end=29, wobble=0):
    # 30 points on a line, d = |i - j|, with d(0, 29) set to far_end and
    # d(1, 2) raised by wobble
    rows = [[F(abs(i - j)) for j in range(30)] for i in range(30)]
    rows[0][29] = rows[29][0] = F(far_end)
    rows[1][2] = rows[2][1] = 1 + F(wobble)
    return MetricSpace([F(1, 30)] * 30, matrix=rows)


def test_exact_validation_finds_violations_among_collinear_equalities():
    # the collinear triples meet the triangle inequality with equality;
    # d(0, 29) = 34 breaks it by 5 on every triple (0, j, 29) and (29, j, 0)
    assert validate(_line30()).ok
    report = validate(_line30(far_end=34))
    assert not report.ok and report.exhaustive
    assert len(report.violations) == 56
    assert {v.kind for v in report.violations} == {"triangle"}
    assert (0, 1, 29) in {v.witness for v in report.violations}
    assert all(v.magnitude == 5.0 for v in report.violations)


def test_exact_validation_beyond_int64():
    # scaled by the LCM 3^50, the distances no longer fit an int64 scan
    tiny = F(1, 3**50)
    assert validate(_line30(wobble=tiny)).ok
    report = validate(_line30(far_end=34, wobble=tiny))
    assert len(report.violations) == 56
    assert all(v.magnitude == 5.0 for v in report.violations)


def _line301_far_end_too_long():
    rows = [[F(abs(i - j)) for j in range(301)] for i in range(301)]
    rows[0][300] = rows[300][0] = 300 + F(1, 2**50)
    return MetricSpace([F(1, 301)] * 301, matrix=rows)


@pytest.mark.parametrize("make, kind, size", [
    # each excess is lost when the entry is rounded to a float
    (lambda: MetricSpace([F(1, 2)] * 2, matrix=[[0, F(1, 3)], [F(1, 3) + F(1, 2**60), 0]]), "asymmetry",
     F(-1, 2**60)),
    (lambda: MetricSpace([F(1, 2)] * 2, matrix=[[F(1, 2**1100), 1], [1, 0]]), "diagonal", F(1, 2**1100)),
    # 301 points exceed the triple cap, so the triangles are sampled
    (_line301_far_end_too_long, "triangle", F(1, 2**50)),
], ids=["asymmetry", "diagonal", "triangle"])
def test_exact_validation_sees_what_floats_round_away(make, kind, size):
    report = validate(make())
    assert not report.ok
    assert {v.kind for v in report.violations} == {kind}
    # and reports each violation's exact size, which no float may round
    assert all(type(v.magnitude) is F and v.magnitude == size for v in report.violations)


def test_mass_sum_violation():
    space = MetricSpace([F(1, 2), F(2, 5)], matrix=[[0, 1], [1, 0]])
    report = validate(space)
    assert any(v.kind == "mass-sum" for v in report.violations)


@pytest.mark.parametrize("mass", [[F(-1, 4), F(3, 4), F(1, 2)], np.array([-0.25, 0.75, 0.5])],
                         ids=["exact", "float"])
def test_negative_mass_witnessed(mass):
    report = validate(MetricSpace(mass, matrix=[[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    assert [(v.kind, v.witness, v.magnitude) for v in report.violations] == [("mass-negative", (0,), -0.25)]
    assert type(report.violations[0].magnitude) is (F if isinstance(mass, list) else float)


@pytest.mark.parametrize("kind, change, witnesses, magnitudes", [
    ("diagonal", lambda i, j: (i == 2) & (j == 2), {(2,)}, {1.0}),
    ("asymmetry", lambda i, j: 0.5 * ((i == 0) & (j == 1)), {(0, 1), (1, 0)}, {0.5, -0.5}),
    ("negative-distance", lambda i, j: -2.0 * (i + j == 1), {(0, 1), (1, 0)}, {-1.0}),
])
def test_derived_validation_witnesses(kind, change, witnesses, magnitudes):
    # four points on a line, one distance changed by a broken block_fn
    def block(i, j):
        i, j = np.broadcast_arrays(np.asarray(i), np.asarray(j))
        return np.abs(i - j).astype(float) + change(i, j)

    report = validate(MetricSpace(np.full(4, 0.25), block_fn=block))
    found = [v for v in report.violations if v.kind == kind]
    assert {v.witness for v in found} == witnesses and {v.magnitude for v in found} == magnitudes


def test_small_derived_space_checks_every_triple():
    # six points at distance 2, except d(0,1) = 1/2 and d(1,2) = 1: only the
    # triple 0, 1, 2 breaks the triangle inequality, in both of its orders
    def block(i, j):
        i, j = np.broadcast_arrays(np.asarray(i), np.asarray(j))
        pair = np.minimum(i, j) * 6 + np.maximum(i, j)
        d = np.where(i == j, 0.0, 2.0)
        return np.where(pair == 1, 0.5, np.where(pair == 8, 1.0, d))

    space = MetricSpace(np.full(6, 1 / 6), block_fn=block)
    report = validate(space)
    assert report.exhaustive and report.checked_triples == 6**3
    assert [(v.kind, v.witness, v.magnitude) for v in report.violations] == \
        [("triangle", (0, 1, 2), 0.5), ("triangle", (2, 1, 0), 0.5)]
    # past triple_cap the space is sampled, as a large one is
    sampled = validate(space, triple_cap=5)
    assert not sampled.exhaustive and sampled.checked_triples == 1_000_000
    assert {v.witness for v in sampled.violations} == {(0, 1, 2), (2, 1, 0)}


def test_asymmetry_and_diagonal_detected():
    space = MetricSpace([0.5, 0.5], matrix=np.array([[0.0, 1.0], [2.0, 0.5]]))
    kinds = {v.kind for v in validate(space).violations}
    assert "asymmetry" in kinds and "diagonal" in kinds


def test_iid_distance_matrices_are_metric():
    # all pairwise distances in [1, 2] force the triangle inequality
    for seed in range(5):
        assert validate(random_space(seed, 12, "iid-unit-interval-distances")).ok


def test_uniform_box_is_metric():
    assert validate(random_space(3, 20, "uniform-box-L2")).ok


def test_social_cost_worked_values(line_space):
    assert social_cost(line_space, 0) == F(9, 10)
    assert social_cost(line_space, 2) == F(21, 10)


def test_social_cost_point_mass():
    space = MetricSpace([F(1), F(0)], matrix=[[0, 2], [2, 0]])
    assert social_cost(space, 0) == 0


def test_social_cost_index_error(line_space):
    with pytest.raises(IndexError):
        social_cost(line_space, 3)


def test_one_median_tie_breaks_low(line_space):
    # costs at points 0 and 1 tie at 9/10; lowest index wins
    assert social_cost(line_space, 0) == social_cost(line_space, 1)
    assert one_median(line_space) == 0


def test_one_median_single_point():
    assert one_median(MetricSpace([F(1)], matrix=[[0]])) == 0


def test_one_median_heavy_point():
    space = MetricSpace([F(9, 10), F(1, 10)], matrix=[[0, 4], [4, 0]])
    assert one_median(space) == 0


def test_one_median_rescale_invariant():
    space = random_space(11, 9, "iid-unit-interval-distances")
    scaled = MetricSpace(
        space.mass_exact,
        matrix=[[3 * d for d in row] for row in space.matrix_exact],
    )
    assert one_median(space) == one_median(scaled)


def test_outside_mass(line_space):
    assert outside_mass(line_space, 0, 3) == 0  # max distance
    assert outside_mass(line_space, 0, F(1, 2)) == F(1, 2)
    assert outside_mass(line_space, 1, 0) == 1 - F(3, 10)  # point mass at center
    # non-increasing in r
    radii = [F(0), F(1, 2), F(1), F(2), F(3), F(4)]
    values = [outside_mass(line_space, 0, r) for r in radii]
    assert all(a >= b for a, b in zip(values, values[1:]))


from conftest import assert_cost_identities  # noqa: E402


def test_cost_identities_exact(line_space, asym_line_space):
    assert_cost_identities(line_space)
    assert_cost_identities(asym_line_space)
    for seed in range(8):
        assert_cost_identities(random_space(seed, 7, "iid-unit-interval-distances"))


def test_cost_identities_float():
    for seed in range(8):
        assert_cost_identities(random_space(seed, 15, "uniform-box-L2"))


def test_save_load_roundtrip_exact(tmp_path, line_space):
    path = tmp_path / "line.space"
    save_space(line_space, path)
    loaded = load_space(path)
    assert loaded.exact
    assert loaded.mass_exact == line_space.mass_exact
    assert loaded.matrix_exact == line_space.matrix_exact
    assert loaded.label == line_space.label
    # a second save is byte-identical
    path2 = tmp_path / "line2.space"
    save_space(loaded, path2)
    assert path.read_text() == path2.read_text()


def test_save_load_roundtrip_float(tmp_path):
    space = random_space(4, 8, "uniform-box-L2")
    path = tmp_path / "box.space"
    save_space(space, path)
    loaded = load_space(path)
    assert not loaded.exact
    assert np.array_equal(loaded.mass, space.mass)
    assert np.array_equal(loaded.matrix, space.matrix)


def test_load_rejects_bad_mass_sum(tmp_path):
    path = tmp_path / "bad.space"
    path.write_text("version 1\npoints 2\nmass 0.5 0.4\nmatrix\n1\n")
    with pytest.raises(SpaceValidationError):
        load_space(path)
    # override skips the axiom check
    assert load_space(path, validate_axioms=False).npoints == 2


def test_load_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.space"
    path.write_text("version 1\npoints 2\nmass 0.5 frog\nmatrix\n1\n")
    with pytest.raises(SpaceFormatError) as err:
        load_space(path)
    assert err.value.line == 3


def test_load_wrong_row_length(tmp_path):
    path = tmp_path / "short.space"
    path.write_text("version 1\npoints 3\nmass 1/3 1/3 1/3\nmatrix\n1\n2\n")
    with pytest.raises(SpaceFormatError):
        load_space(path)


def test_coords_l2_matches_recomputed(tmp_path):
    path = tmp_path / "coords.space"
    path.write_text(
        "version 1\npoints 3\nmass 0.25 0.25 0.5\ncoords\n0.0 0.0\n1.0 0.0\n0.0 2.0\nmetric L2\n"
    )
    space = load_space(path)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    expect = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    assert np.array_equal(space.matrix, expect)


def test_coords_l1_exact(tmp_path):
    path = tmp_path / "l1.space"
    path.write_text("version 1\npoints 2\nmass 1/2 1/2\ncoords\n0 0\n1/2 3\nmetric L1\n")
    space = load_space(path)
    assert space.exact
    assert space.matrix_exact[0][1] == F(7, 2)


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "decimal"])
@pytest.mark.parametrize("metric, far", [("L1", (2, F(9, 4), F(15, 4))), ("Linf", (F(3, 2), 2, F(5, 2)))])
def test_coords_l1_and_linf(tmp_path, exact, metric, far):
    # rational coordinates give exact distances, Fractions throughout; a
    # decimal one makes every distance float64, here each exact one's float
    rows = ["0 0", "3/2 -1/2", "1/4 2"] if exact else ["0 0", "1.5 -0.5", "0.25 2.0"]
    path = tmp_path / "coords.space"
    path.write_text("version 1\npoints 3\nmass 1/4 1/4 1/2\ncoords\n" + "\n".join(rows) + f"\nmetric {metric}\n")
    space = load_space(path)
    want = [[0, far[0], far[1]], [far[0], 0, far[2]], [far[1], far[2], 0]]
    assert space.exact is exact
    assert space.matrix.tobytes() == np.array(want, dtype=float).tobytes()
    if exact:
        assert space.matrix_exact == tuple(map(tuple, want))
        assert all(type(d) is F for row in space.matrix_exact for d in row)


def test_random_space_deterministic():
    for mode in ("uniform-box-L2", "iid-unit-interval-distances"):
        a = random_space(7, 6, mode)
        b = random_space(7, 6, mode)
        assert np.array_equal(a.mass, b.mass)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_space(8, 6, mode)
        assert not np.array_equal(a.matrix, c.matrix)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
def test_iid_space_is_its_defining_draws(seed):
    # masses are weights over their sum, and each distance below the
    # diagonal is 1 + draw / 2^20, drawn row by row after the weights
    npoints = 9
    space = random_space(seed, npoints, "iid-unit-interval-distances")
    rng = np.random.default_rng([2, seed, npoints])
    weights = rng.integers(1, 65, size=npoints).tolist()
    assert space.mass_exact == tuple(F(w, sum(weights)) for w in weights)
    want = [[F(0)] * npoints for _ in range(npoints)]
    for i in range(1, npoints):
        draws = rng.integers(0, 1 << 20, size=i)
        for j in range(i):
            want[i][j] = want[j][i] = 1 + F(int(draws[j]), 1 << 20)
    assert space.matrix_exact == tuple(map(tuple, want))
    assert all(isinstance(d, F) for row in space.matrix_exact for d in row)


def test_exact_entries_are_kept():
    half, far = F(1, 2), F(3, 2)
    space = MetricSpace([half, 1 - half], matrix=[[0, far], [far, 0]])
    assert space.mass_exact[0] is half and space.matrix_exact[0][1] is far
    assert space.matrix_exact[0][0] == 0 and isinstance(space.matrix_exact[0][0], F)


_EXACT_MASS = [F(1, 2), 0, F(1, 2)]
_EXACT_ROWS = [[0, F(1, 3), 2], [F(1, 3), 0, F(5, 3)], [2, F(5, 3), 0]]


@pytest.mark.parametrize("mass, matrix, exact", [
    (_EXACT_MASS, _EXACT_ROWS, True),
    (tuple(_EXACT_MASS), tuple(map(tuple, _EXACT_ROWS)), True),
    (np.array(_EXACT_MASS, dtype=object), np.array(_EXACT_ROWS, dtype=object), True),
    (_EXACT_MASS, [[0, F(1, 3), 2.0], [F(1, 3), 0, F(5, 3)], [2.0, F(5, 3), 0]], False),
    ([0.5, 0, F(1, 2)], _EXACT_ROWS, False),
    (np.array(_EXACT_MASS, dtype=np.float64), _EXACT_ROWS, False),
    (_EXACT_MASS, np.array(_EXACT_ROWS, dtype=np.float64), False),
    ([True, 0, 0], _EXACT_ROWS, False),
    (np.array([1, 0, 0]), _EXACT_ROWS, False),
], ids=["lists", "tuples", "object-arrays", "a-float-distance", "a-float-mass", "float-mass-array",
        "float-matrix-array", "bool-mass", "int-mass-array"])
def test_intake_exactness_and_float_bits(mass, matrix, exact):
    # a space is exact when every mass and distance is an int or a Fraction
    # given as Python numbers or in an object array; a numeric numpy array,
    # int dtype included, is float64; the floats are each value's float
    space = MetricSpace(mass, matrix=matrix)
    assert space.exact is exact
    assert space.mass.tobytes() == np.array([float(m) for m in mass]).tobytes()
    assert space.matrix.tobytes() == np.array([[float(d) for d in row] for row in matrix]).tobytes()
    if exact:
        assert space.mass_exact == tuple(map(F, mass))
        assert space.matrix_exact == tuple(tuple(map(F, row)) for row in matrix)
        assert all(type(d) is F for d in space.mass_exact + sum(space.matrix_exact, ()))


def test_float_mass_array_is_taken_as_given():
    # a 2^20-point float64 mass array makes no Python float per location:
    # the build holds the array and its cumulative sum, nothing more
    mass = np.full(1 << 20, 1.0 / (1 << 20))
    tracemalloc.start()
    try:
        space = MetricSpace(mass, block_fn=lambda i, j: np.abs(i - j).astype(float))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.npoints == 1 << 20 and not space.exact
    assert peak < 3 * mass.nbytes


def test_no_import_inside_a_function():
    # imports sit at the top of each module, so the module graph is the one
    # the import lines state: spaces needs no other module of the package
    for path in sorted(Path(__file__).parents[1].glob("src/metricvoting/*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [node for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.name}: {func.name} imports inside its body"
        if path.name == "spaces.py":
            assert not [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]


def test_imports_are_the_package_numpy_or_the_standard_library():
    # numpy is the one declared dependency: scipy or pytest-benchmark may be
    # installed where tests run, yet an import of either fails a clean install
    allowed = {"metricvoting", "numpy"} | sys.stdlib_module_names
    for path in sorted(Path(__file__).parents[1].glob("src/metricvoting/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # a relative import is the package
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_random_space_bad_args():
    with pytest.raises(ValueError):
        random_space(1, 0, "uniform-box-L2")
    with pytest.raises(ValueError):
        random_space(1, 4, "hexagonal")


def test_derived_space_distance_dispatch():
    def ring(i, j):
        i, j = np.broadcast_arrays(np.asarray(i), np.asarray(j))
        gap = np.abs(i - j)
        return np.minimum(gap, 5 - gap).astype(float)

    space = MetricSpace(np.full(5, 0.2), block_fn=ring)
    assert space.distance(0, 3) == 2.0
    assert validate(space).ok
    assert math.isclose(social_cost(space, 0), 0.2 * (1 + 2 + 2 + 1))
