import math
import operator
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricvoting import classify_by_limit, condition_sides, scan, shifted_sides
from metricvoting.condition import (
    DEFAULT_Y_GRID,
    ConditionCell,
    _prefix_sides,
    _vector_sides,
)
from metricvoting.scoring import (
    Borda,
    Dowdall,
    GammaApproval,
    KApproval,
    Plurality,
    TableFamily,
    Veto,
    int_column,
)

ALL_FAMILIES = [
    Plurality(),
    Veto(),
    KApproval(3),
    GammaApproval(F(1, 2)),
    Borda(),
    Dowdall(),
]

FAST_PATH_NS = (2, 3, 5, 9, 17, 33, 65, 128)
# raw integer rows (with ties) for every n the fast-path test visits;
# normalization divides them by (n-1)^2 + 3*floor((n-1)/2)
TABLE_FAMILY = TableFamily(rows={
    n: tuple((n - 1 - k) ** 2 + 3 * ((n - 1 - k) // 2) for k in range(n))
    for n in FAST_PATH_NS
})
# the same rows for every n up to 300, for the drawn columns
WIDE_TABLE = TableFamily(rows={
    n: tuple((n - 1 - k) ** 2 + 3 * ((n - 1 - k) // 2) for k in range(n))
    for n in range(2, 301)
})


def _big(q, n):
    """ceil(q*(n-1)) in integers."""
    return -((1 - n) * q.numerator // q.denominator)


def _column_sides(family, ns, q, m, slack):
    """(lhs, rhs, holds) at each n of ns, from one ``_prefix_sides`` column."""
    (lhs_num, lhs_den), (rhs_num, rhs_den), holds = _prefix_sides(family, int_column(ns), q, m, slack)
    return [(F(a, b), F(c, d), h) for a, b, c, d, h in zip(lhs_num, lhs_den, rhs_num, rhs_den, holds.tolist())]


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
    vec = Borda().score_vector(20)
    with pytest.raises(ValueError, match=r"^offset m=3 overflows: m \+ 18 must stay <= n-1=19$"):
        shifted_sides(vec, F(9, 10), 3)
    with pytest.raises(ValueError, match=r"^offset m=-1 must be >= 0$"):
        shifted_sides(vec, F(9, 10), -1)
    with pytest.raises(ValueError, match=r"^offset m=-1 must be >= 0$"):
        _prefix_sides(Borda(), int_column([20, 40]), F(9, 10), -1, 2)


def test_sides_refuse_one_candidate():
    vec = Borda().score_vector(1)
    with pytest.raises(ValueError, match=r"^condition needs n >= 2$"):
        condition_sides(vec, F(1, 2))
    with pytest.raises(ValueError, match=r"^condition needs n >= 2$"):
        shifted_sides(vec, F(9, 10), 0)


@pytest.mark.parametrize("family", ALL_FAMILIES + [TABLE_FAMILY], ids=lambda f: f.spec)
def test_family_fast_paths_match_generic(family):
    # one column per y, and per (z, m) over the n that leave room for m
    for y in DEFAULT_Y_GRID:
        for n, sides in zip(FAST_PATH_NS, _column_sides(family, FAST_PATH_NS, y, 0, 1)):
            lhs, rhs = condition_sides(family.score_vector(n), y)
            assert sides == (lhs, rhs, lhs > rhs), (n, y)
    for z in (F(2, 3), F(5, 6), F(19, 20)):
        for m in range(max(n - _big(z, n) for n in FAST_PATH_NS)):
            ns = [n for n in FAST_PATH_NS if m < n - _big(z, n)]
            for n, sides in zip(ns, _column_sides(family, ns, z, m, 2)):
                lhs, rhs = shifted_sides(family.score_vector(n), z, m)
                assert sides == (lhs, rhs, lhs > rhs), (n, z, m)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_holds_monotone_in_y(family):
    ns = (5, 17, 64, 201)
    held = dict.fromkeys(ns, False)
    for y in DEFAULT_Y_GRID:  # ascending
        for n, sides in zip(ns, _column_sides(family, ns, y, 0, 1)):
            lhs, rhs = condition_sides(family.score_vector(n), y)
            assert sides == (lhs, rhs, lhs > rhs), (family.spec, n, y)
            assert lhs > rhs or not held[n], (family.spec, n, y)
            held[n] = lhs > rhs


# the (n, y, m) cells test_shifted_implication checks, per family
IMPLICATION_CELLS = {
    "plurality": 122, "veto": 127, "kapproval:3": 410,
    "gapproval:1/2": 20553, "borda": 20554, "dowdall": 642,
}


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_shifted_implication(family):
    """Wherever the plain inequality holds at (y, n) with y >= 1/2, the
    shifted variant holds at z = 5/6 + y/6 for every admissible offset m."""
    ns, checked = range(4, 513), 0
    for y in DEFAULT_Y_GRID:
        held = [n for n, (lhs, rhs, _) in zip(ns, _column_sides(family, ns, y, 0, 1)) if lhs > rhs]
        z = F(5, 6) + y / 6
        m_cap = {n: min(int((1 - z) * n), n - 1 - _big(z, n)) for n in held}
        for m in range(max(m_cap.values(), default=-1) + 1):
            column = [n for n in held if m <= m_cap[n]]
            for n, (sl, sr, _) in zip(column, _column_sides(family, column, z, m, 2)):
                assert sl > sr, (family.spec, n, y, m)
            checked += len(column)
    assert checked == IMPLICATION_CELLS[family.spec]


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
    # immutable, and a pickled cell keeps its class and every raw field
    for name in ConditionCell._fields + ("lhs", "lhs_terms", "rhs_terms", "extra"):
        with pytest.raises(AttributeError):
            setattr(cells[0], name, None)
    # one flat tuple: the pairs are read from its integer fields
    for cell in cells:
        assert not any(isinstance(field, tuple) for field in cell)
        assert cell.lhs_terms == (cell.lhs_num, cell.lhs_den)
        assert cell.rhs_terms == (cell.rhs_num, cell.rhs_den)
    for cell, back in zip(cells, pickle.loads(pickle.dumps(cells))):
        assert type(back) is ConditionCell
        assert (back.y, back.n, back.lhs_terms, back.rhs_terms, back.holds) == \
            (cell.y, cell.n, cell.lhs_terms, cell.rhs_terms, cell.holds)


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
    assert not any(a != b for a, b in zip(table_cells, borda_cells))
    # a cell equals only a cell: a tuple of the same fields is another value
    assert table_cells[0] != tuple(borda_cells[0]) and borda_cells[0] != tuple(borda_cells[0])
    # and cells have no order, which the raw pairs would give equal cells
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(table_cells[0], borda_cells[0])


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_cell_sides_read_in_lowest_terms(family):
    for cell in scan(family, y_grid=[F(1, 2), F(7, 8)], n_min=2, n_max=300).cells:
        for side, (num, den) in ((cell.lhs, cell.lhs_terms), (cell.rhs, cell.rhs_terms)):
            assert type(side) is F and side == F(num, den)
            assert side.denominator > 0 and math.gcd(side.numerator, side.denominator) == 1


FAMILIES_AND_TABLE = ALL_FAMILIES + [WIDE_TABLE]
_QUANTILES = st.builds(lambda den, num: F(num % (den - 1) + 1, den), st.integers(2, 1000), st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES_AND_TABLE), y=_QUANTILES,
       n_min=st.integers(2, 300), span=st.integers(0, 40))
def test_scan_columns_match_vectors(family, y, n_min, span):
    n_max = min(300, n_min + span)
    for cell in scan(family, [y], n_min, n_max).cells:
        lhs, rhs = _vector_sides(family.score_vector(cell.n), y, 0, 1)
        assert (cell.lhs, cell.rhs, cell.holds) == (lhs, rhs, lhs > rhs), (cell.n, y)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES_AND_TABLE), z=_QUANTILES.filter(lambda z: z > F(1, 2)),
       m=st.integers(0, 40), n_min=st.integers(2, 300), span=st.integers(0, 20))
def test_shifted_columns_match_vectors(family, z, m, n_min, span):
    # every n of the column leaves room for offset m: m + ceil(z*(n-1)) <= n-1
    ns = [n for n in range(n_min, min(300, n_min + span) + 1) if m + _big(z, n) <= n - 1]
    if not ns:
        return
    for n, sides in zip(ns, _column_sides(family, ns, z, m, 2)):
        lhs, rhs = _vector_sides(family.score_vector(n), z, m, 2)
        assert sides == (lhs, rhs, lhs > rhs), (n, z, m)


def _assert_python_int_terms(cells):
    for cell in cells:
        terms = cell.lhs_terms + cell.rhs_terms
        assert all(type(t) is int for t in terms) and type(cell.holds) is bool and type(cell.n) is int


def test_approval_terms_stay_python_ints_past_int64():
    # lhs = y * (n//2 + 1) over y's 2^26 denominator: lhs > rhs cross-multiplies
    # past 2^63 near n = 10^4
    y = F(2**26 - 1, 2**26)
    family = GammaApproval(F(1, 2))
    cells = scan(family, [y], n_min=9990, n_max=10010).cells
    _assert_python_int_terms(cells)
    assert min(abs(c.lhs_terms[0] * c.rhs_terms[1]) for c in cells) >= 2**63
    for cell in cells[:: len(cells) - 1]:  # the vector reference sums 10^4 scores
        lhs, rhs = condition_sides(family.score_vector(cell.n), y)
        assert (cell.lhs, cell.rhs, cell.holds) == (lhs, rhs, lhs > rhs)


def test_borda_terms_stay_python_ints_past_int64():
    # (Q+1) * P(n, Q) passes 2^63 from n = 2.1 * 10^6 on, and so does every
    # lhs > rhs cross product here; against Borda's sides summed in closed
    # form: y*Q(Q+1)/(2(n-1)) and (1-y)*Q(2n-Q-1)/(2(n-1))
    cells = scan(Borda(), [F(1, 2), F(9, 10), F(99, 100)], n_min=3 * 10**6 - 5, n_max=3 * 10**6 + 5).cells
    _assert_python_int_terms(cells)
    assert min(abs(c.lhs_terms[0] * c.rhs_terms[1]) for c in cells) >= 2**63
    for cell in cells:
        y, n = cell.y, cell.n
        big = -((1 - n) * y.numerator // y.denominator)
        lhs = y * F(big * (big + 1), 2 * (n - 1))
        rhs = (1 - y) * F(big * (2 * n - big - 1), 2 * (n - 1))
        assert (cell.lhs, cell.rhs, cell.holds) == (lhs, rhs, lhs > rhs), (n, y)


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
