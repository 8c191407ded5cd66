import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricvoting import limit_value, normalize, parse_family, score_vector
from metricvoting.scoring import (
    Borda,
    Dowdall,
    GammaApproval,
    KApproval,
    Plurality,
    ScoringVector,
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


def test_borda_vector():
    assert score_vector(Borda(), 5).scores == (1, F(3, 4), F(1, 2), F(1, 4), 0)


def test_dowdall_vector():
    assert score_vector(Dowdall(), 4).scores == (1, F(1, 3), F(1, 9), 0)


def test_plurality_veto_vectors():
    assert score_vector(Plurality(), 3).scores == (1, 0, 0)
    assert score_vector(Veto(), 3).scores == (1, 1, 0)


def test_gamma_approval_floor():
    # ones at positions k <= floor(n/2)
    assert score_vector(GammaApproval(F(1, 2)), 5).scores == (1, 1, 1, 0, 0)
    assert score_vector(GammaApproval(F(1, 4)), 8).scores == (1, 1, 1, 0, 0, 0, 0, 0)


def test_kapproval_clamps_when_k_large():
    # k >= n degenerates to approving everyone; the last slot must stay 0
    assert score_vector(KApproval(7), 4).scores == (1, 1, 1, 0)
    assert score_vector(KApproval(2), 6).scores == (1, 1, 0, 0, 0, 0)


def test_vector_invariants_reject_bad():
    with pytest.raises(ValueError):
        ScoringVector(3, (1, F(1, 2), F(1, 4)))  # does not end at 0
    with pytest.raises(ValueError):
        ScoringVector(3, (F(1, 2), F(1, 4), 0))  # does not start at 1
    with pytest.raises(ValueError):
        ScoringVector(3, (1, 0, 0, 0))  # wrong length
    with pytest.raises(ValueError):
        ScoringVector(4, (1, F(1, 4), F(1, 2), 0))  # not non-increasing


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_definition_invariants_sweep(family):
    for n in range(2, 513):
        vec = score_vector(family, n)  # constructor enforces the invariants
        assert vec.n == n


def test_normalize_affine():
    assert normalize([5, 3, 1]).scores == (1, F(1, 2), 0)


def test_normalize_identity_on_normalized():
    vec = (1, F(2, 3), F(1, 3), 0)
    assert normalize(vec).scores == vec


def test_normalize_dowdall_raw():
    assert normalize([1, F(1, 2), F(1, 3), F(1, 4)]).scores == (1, F(1, 3), F(1, 9), 0)


def test_normalize_rejects_constant_and_increasing():
    with pytest.raises(ValueError):
        normalize([2, 2, 2])
    with pytest.raises(ValueError):
        normalize([1, 2, 0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=100), min_size=2, max_size=10),
    st.fractions(min_value=F(1, 10), max_value=10),
    st.fractions(min_value=-5, max_value=5),
)
def test_normalize_kills_affine_transforms(raw, scale, shift):
    raw = sorted(raw, reverse=True)
    if raw[0] == raw[-1]:
        return
    base = normalize(raw)
    assert normalize([scale * v + shift for v in raw]) == base
    assert normalize(base.scores).scores == base.scores


def test_limit_values():
    assert limit_value(Borda(), F(1, 4)).value == F(3, 4)
    assert limit_value(Dowdall(), F(1, 2)).value == 0
    assert limit_value(Veto(), F(999, 1000)).value == 1
    assert limit_value(Veto(), 1).value == 0
    assert limit_value(Plurality(), 0).value == 1
    assert limit_value(Plurality(), F(1, 100)).value == 0
    gamma = GammaApproval(F(1, 2))
    assert limit_value(gamma, F(1, 2)).value == 1
    assert limit_value(gamma, F(1, 2) + F(1, 1000)).value == 0
    assert not TableFamily(rows={3: (2, 1, 0)}).limit_value(F(1, 2)).defined


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_pointwise_consistency(family):
    """The per-n scores converge to the limit rule at rational quantiles."""
    eps = F(1, 100)
    grid = [2**k for k in range(1, 17)] + [10**5]
    for x in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)):
        fx = family.limit_value(x).value
        ok_from = None
        for n in grid:
            lo = family.score_at(n, math.floor(x * (n - 1)))
            hi = family.score_at(n, math.ceil(x * (n - 1)))
            if lo >= fx - eps and hi <= fx + eps:
                if ok_from is None:
                    ok_from = n
            else:
                ok_from = None
        assert ok_from is not None and ok_from <= 10**5, (family.spec, x)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_prefix_sum_matches_materialized(family):
    for n in (2, 3, 5, 8, 13, 21, 34, 55):
        vec = score_vector(family, n)
        running = F(0)
        for m in range(n + 1):
            assert family.prefix_sum(n, m) == running
            if m < n:
                running += vec.scores[m]


def test_table_family(tmp_path):
    path = tmp_path / "scores.table"
    path.write_text("3: 4 2 1\n4: 1 1/2 1/3 1/4\n")
    fam = TableFamily(path=str(path))
    assert fam.score_vector(3).scores == (1, F(1, 3), 0)
    assert fam.score_vector(4).scores == (1, F(1, 3), F(1, 9), 0)
    with pytest.raises(ValueError):
        fam.score_vector(5)


def test_table_rows_use_space_number_syntax(tmp_path):
    path = tmp_path / "scores.table"
    path.write_text("3: 1 1e-3 0\n4: +2 1/2 0.1 0\n")
    fam = TableFamily(path=str(path))
    assert fam.rows[3] == (1, F(float("1e-3")), 0)
    assert fam.rows[4] == (2, F(1, 2), F(float("0.1")), 0)
    for bad in ("1.0e400", "1/0", "x"):
        path.write_text(f"3: 1 {bad} 0\n")
        with pytest.raises(ValueError, match="bad table row"):
            TableFamily(path=str(path))


def test_table_family_rejects_invalid_rows():
    with pytest.raises(ValueError):
        TableFamily(rows={3: (1, 2, 0)}).score_vector(3)  # increasing
    with pytest.raises(ValueError):
        TableFamily(rows={3: (1, 1, 1)}).score_vector(3)  # constant


def test_parse_family():
    assert parse_family("borda") == Borda()
    assert parse_family("kapproval:3") == KApproval(3)
    assert parse_family("gapproval:2/3") == GammaApproval(F(2, 3))
    for bad in ("kapproval:0", "gapproval:5/4", "gapproval:0", "mystery", "kapproval:x"):
        with pytest.raises(ValueError):
            parse_family(bad)
