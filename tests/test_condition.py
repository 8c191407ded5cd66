import math
import pickle
from fractions import Fraction as F

import pytest

from metricvoting import classify_by_limit, condition_sides, scan, shifted_sides
from metricvoting.condition import (
    DEFAULT_Y_GRID,
    condition_sides_family,
    shifted_sides_family,
)
from metricvoting.scoring import (
    Borda,
    Dowdall,
    GammaApproval,
    KApproval,
    Plurality,
    TableFamily,
    Veto,
)

ALL_FAMILIES = [
    Plurality(),
    Veto(),
    KApproval(3),
    GammaApproval(F(1, 2)),
    Borda(),
    Dowdall(),
]

# raw integer rows (with ties) for every n the fast-path test visits;
# normalization divides them by (n-1)^2 + 3*floor((n-1)/2)
TABLE_FAMILY = TableFamily(rows={
    n: tuple((n - 1 - k) ** 2 + 3 * ((n - 1 - k) // 2) for k in range(n))
    for n in (2, 3, 5, 9, 17, 33, 65, 128)
})


def test_borda_spot_values():
    lhs, rhs = condition_sides(Borda().score_vector(11), F(9, 10))
    assert (lhs, rhs) == (F(81, 20), F(27, 50))
    assert lhs > rhs
    lhs, rhs = condition_sides(Borda().score_vector(11), F(1, 2))
    assert (lhs, rhs) == (F(3, 4), F(2))
    assert not lhs > rhs


def test_plurality_tie_fails_by_strictness():
    lhs, rhs = condition_sides(Plurality().score_vector(11), F(9, 10))
    assert lhs == rhs == F(9, 10)


def test_veto_lhs_zero():
    lhs, rhs = condition_sides(Veto().score_vector(11), F(9, 10))
    assert lhs == 0 and rhs == F(1, 10)


def test_sides_are_exact_rationals():
    lhs, rhs = condition_sides(Dowdall().score_vector(40), F(7, 8))
    assert isinstance(lhs, F) and isinstance(rhs, F)


def test_condition_rejects_bad_y():
    vec = Borda().score_vector(8)
    for y in (0, 1, F(3, 2), -1):
        with pytest.raises(ValueError):
            condition_sides(vec, y)


def test_shifted_m0_reduces_to_condition_with_doubled_rhs():
    for fam in ALL_FAMILIES:
        for n in (8, 21, 64):
            vec = fam.score_vector(n)
            for z in (F(2, 3), F(9, 10)):
                l5, r5 = condition_sides(vec, z)
                l6, r6 = shifted_sides(vec, z, 0)
                assert l6 == l5 and r6 == 2 * r5


def test_shifted_borda_worked_case():
    lhs, rhs = shifted_sides(Borda().score_vector(101), F(19, 20), 2)
    assert lhs > rhs


def test_shifted_veto_constant_prefix():
    vec = Veto().score_vector(101)
    lhs, _ = shifted_sides(vec, F(9, 10), 2)  # m + Z < n-1 keeps the prefix flat
    assert lhs == 0


def test_shifted_offset_overflow():
    with pytest.raises(ValueError):
        shifted_sides(Borda().score_vector(20), F(9, 10), 3)


@pytest.mark.parametrize("family", ALL_FAMILIES + [TABLE_FAMILY], ids=lambda f: f.spec)
def test_family_fast_paths_match_generic(family):
    for n in (2, 3, 5, 9, 17, 33, 65, 128):
        vec = family.score_vector(n)
        for y in DEFAULT_Y_GRID:
            assert condition_sides_family(family, n, y) == condition_sides(vec, y)
        for z in (F(2, 3), F(5, 6), F(19, 20)):
            big_z = -((1 - n) * z.numerator // z.denominator)
            for m in range(0, n - big_z):
                assert shifted_sides_family(family, n, z, m) == shifted_sides(vec, z, m)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_holds_monotone_in_y(family):
    for n in (5, 17, 64, 201):
        held = False
        for y in DEFAULT_Y_GRID:  # ascending
            lhs, rhs = condition_sides_family(family, n, y)
            if held:
                assert lhs > rhs, (family.spec, n, y)
            held = held or lhs > rhs


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_shifted_implication(family):
    """Wherever the plain inequality holds at (y, n) with y >= 1/2, the
    shifted variant holds at z = 5/6 + y/6 for every admissible offset m."""
    for n in range(4, 513):
        for y in DEFAULT_Y_GRID:
            lhs, rhs = condition_sides_family(family, n, y)
            if not lhs > rhs:
                continue
            z = F(5, 6) + y / 6
            big_z = -((1 - n) * z.numerator // z.denominator)
            m_cap = min(int((1 - z) * n), n - 1 - big_z)
            for m in range(m_cap + 1):
                sl, sr = shifted_sides_family(family, n, z, m)
                assert sl > sr, (family.spec, n, y, m)


def test_scan_verdicts_small_horizon():
    borda = scan(Borda(), n_min=4, n_max=300)
    assert borda.verdict.kind == "CertifiedConstantWithinHorizon"
    assert borda.verdict.y == F(2, 3)
    gamma = scan(GammaApproval(F(1, 2)), n_min=4, n_max=300)
    assert gamma.verdict.kind == "CertifiedConstantWithinHorizon"
    # the super-constant families keep holding at y near 1 surprisingly long
    # (kapproval:3 to n ~ 300, dowdall to n ~ 600), so ruling them out takes
    # the full default horizon
    for fam in (Plurality(), Veto(), KApproval(3), Dowdall()):
        assert scan(fam, n_min=4, n_max=2000).verdict.kind == "FailsEverywhereOnGrid"


def test_scan_cells_match_generic():
    report = scan(Borda(), y_grid=[F(1, 2), F(9, 10)], n_min=4, n_max=40)
    for cell in report.cells:
        assert (cell.lhs, cell.rhs) == condition_sides(Borda().score_vector(cell.n), cell.y)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_scan_cells_and_prefix_sums_match_vectors_at_large_n(family):
    # Dowdall's harmonic denominators grow past 800 digits by n = 2000
    report = scan(family, n_min=2, n_max=2000)
    cells = {(cell.y, cell.n): cell for cell in report.cells}
    for n in (2, 3, 4, 127, 128, 1021, 1024, 2000):
        vec = family.score_vector(n)
        for y in DEFAULT_Y_GRID:
            cell = cells[y, n]
            assert (cell.lhs, cell.rhs) == condition_sides(vec, y), (n, y)
        running = F(0)
        for m in range(n + 1):
            total = family.prefix_sum(n, m)
            assert type(total) is F and total == running, (n, m)
            if m < n:
                running += vec.scores[m]


def test_scan_cells_hold_no_instance_dict():
    # a default-grid scan keeps thousands of cells: a slotted cell has no
    # per-instance __dict__, and still pickles and compares by value
    cells = scan(Borda(), n_min=4, n_max=20).cells
    assert not hasattr(cells[0], "__dict__")
    assert pickle.loads(pickle.dumps(cells)) == cells


def test_table_scan_cells_match_vectors():
    # a table family has no closed form: its pairs come from the generic sum
    for n in sorted(TABLE_FAMILY.rows):
        vec = TABLE_FAMILY.score_vector(n)
        for cell in scan(TABLE_FAMILY, n_min=n, n_max=n).cells:
            lhs, rhs = condition_sides(vec, cell.y)
            assert (cell.lhs, cell.rhs, cell.holds) == (lhs, rhs, lhs > rhs), (n, cell.y)


def test_cells_compare_and_hash_by_reduced_value():
    # Borda's rows through a table reduce every prefix sum; Borda's closed form
    # keeps (m*(2(n-1)-(m-1)), 2(n-1)) unreduced, so the raw pairs differ
    table = TableFamily(rows={n: tuple(range(n - 1, -1, -1)) for n in range(4, 41)})
    table_cells = scan(table, n_min=4, n_max=40).cells
    borda_cells = scan(Borda(), n_min=4, n_max=40).cells
    assert any(a.lhs_terms != b.lhs_terms or a.rhs_terms != b.rhs_terms
               for a, b in zip(table_cells, borda_cells))
    assert table_cells == borda_cells
    assert [hash(c) for c in table_cells] == [hash(c) for c in borda_cells]
    assert set(table_cells) == set(borda_cells)
    assert table_cells[0] != borda_cells[1]


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_cell_sides_read_in_lowest_terms(family):
    for cell in scan(family, y_grid=[F(1, 2), F(7, 8)], n_min=2, n_max=300).cells:
        for side, (num, den) in ((cell.lhs, cell.lhs_terms), (cell.rhs, cell.rhs_terms)):
            assert type(side) is F and side == F(num, den)
            assert side.denominator > 0 and math.gcd(side.numerator, side.denominator) == 1


def test_scan_verdict_is_horizon_relative():
    # veto holds at y=99/100 up to n ~ 100, which a short horizon cannot rule out
    report = scan(Veto(), n_min=4, n_max=200)
    assert report.verdict.kind == "Mixed"
    assert scan(Veto(), n_min=4, n_max=2000).verdict.kind == "FailsEverywhereOnGrid"


def test_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        scan(Borda(), y_grid=[])


def test_classifier_table():
    assert classify_by_limit(Borda()) == "ConstantByLimit"
    for gamma in (F(1, 4), F(1, 2), F(3, 4)):
        assert classify_by_limit(GammaApproval(gamma)) == "ConstantByLimit"
    assert classify_by_limit(Plurality()) == "SuperConstantByLimit"
    assert classify_by_limit(KApproval(3)) == "SuperConstantByLimit"
    assert classify_by_limit(Dowdall()) == "SuperConstantByLimit"
    assert classify_by_limit(Veto()) == "IndeterminateLimit"
    assert classify_by_limit(TableFamily(rows={3: (2, 1, 0)})) == "IndeterminateLimit"
