import math
from fractions import Fraction as F

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


def test_mass_sum_violation():
    space = MetricSpace([F(1, 2), F(2, 5)], matrix=[[0, 1], [1, 0]])
    report = validate(space)
    assert any(v.kind == "mass-sum" for v in report.violations)


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


def test_random_space_deterministic():
    for mode in ("uniform-box-L2", "iid-unit-interval-distances"):
        a = random_space(7, 6, mode)
        b = random_space(7, 6, mode)
        assert np.array_equal(a.mass, b.mass)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_space(8, 6, mode)
        assert not np.array_equal(a.matrix, c.matrix)


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
    assert validate(space, triangle_samples=20000).ok
    assert math.isclose(social_cost(space, 0), 0.2 * (1 + 2 + 2 + 1))
