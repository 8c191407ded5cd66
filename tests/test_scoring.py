import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricvoting import normalize, parse_family
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
from metricvoting.spaces import _scaled_integers

ALL_FAMILIES = [
    Plurality(),
    Veto(),
    KApproval(3),
    GammaApproval(F(1, 2)),
    Borda(),
    Dowdall(),
]


def test_borda_vector():
    assert Borda().score_vector(5).scores == (1, F(3, 4), F(1, 2), F(1, 4), 0)


def test_dowdall_vector():
    assert Dowdall().score_vector(4).scores == (1, F(1, 3), F(1, 9), 0)


def test_plurality_veto_vectors():
    assert Plurality().score_vector(3).scores == (1, 0, 0)
    assert Veto().score_vector(3).scores == (1, 1, 0)


def test_score_vectors_are_shared_and_their_memo_is_bounded():
    # an instance hands out one vector per n, keeps at most 256 scores, and
    # a vector built after the memo empties equals the one built before
    family = Borda()
    first = family.score_vector(64)
    assert family.score_vector(64) is first and not first.float_scores.flags.writeable
    for n in list(range(1, 41)) + [256, 300, 1000]:
        assert family.score_vector(n) == Borda().score_vector(n)
        assert sum(family._vectors) <= 256
    again = family.score_vector(64)
    assert again == first and again.float_scores.tobytes() == first.float_scores.tobytes()
    with pytest.raises(ValueError, match="n must be >= 1"):
        family.score_vector(0)
    # the exact path's integer scores: read-only, computed once per vector,
    # and no part of ==, hash or repr
    table = TableFamily(rows={n: tuple(F(1, k + 1) for k in range(n)) for n in range(2, 65)})
    for fam in ALL_FAMILIES + [table]:
        for n in range(2 if fam is table else 1, 65):
            vec = fam.score_vector(n)
            scores, scale = vec.scaled
            want, want_scale = _scaled_integers(vec.scores)
            assert scale == want_scale and scores.dtype == object and scores.tolist() == want.tolist()
            assert vec.scaled[0] is scores and not scores.flags.writeable
            fresh = ScoringVector(n, vec.scores)
            assert vec == fresh and hash(vec) == hash(fresh) and repr(vec) == repr(fresh)


def test_gamma_approval_floor():
    # ones at positions k <= floor(n/2)
    assert GammaApproval(F(1, 2)).score_vector(5).scores == (1, 1, 1, 0, 0)
    assert GammaApproval(F(1, 4)).score_vector(8).scores == (1, 1, 1, 0, 0, 0, 0, 0)


def test_kapproval_clamps_when_k_large():
    # k >= n degenerates to approving everyone; the last slot must stay 0
    assert KApproval(7).score_vector(4).scores == (1, 1, 1, 0)
    assert KApproval(2).score_vector(6).scores == (1, 1, 0, 0, 0, 0)
    # one approval rule: k = 1 is Plurality's vector, k >= n - 1 is Veto's
    for n in range(2, 65):
        assert KApproval(1).score_vector(n) == Plurality().score_vector(n)
        for k in (n - 1, n, 2 * n):
            assert KApproval(k).score_vector(n) == Veto().score_vector(n)
    assert KApproval(1) != Plurality()  # the specs differ


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
        vec = family.score_vector(n)  # constructor enforces the invariants
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
    assert Borda().limit_value(F(1, 4)) == F(3, 4)
    assert Dowdall().limit_value(F(1, 2)) == 0
    assert Veto().limit_value(F(999, 1000)) == 1
    assert Veto().limit_value(1) == 0
    assert Plurality().limit_value(0) == 1
    assert Plurality().limit_value(F(1, 100)) == 0
    gamma = GammaApproval(F(1, 2))
    assert gamma.limit_value(F(1, 2)) == 1
    assert gamma.limit_value(F(1, 2) + F(1, 1000)) == 0
    assert TableFamily(rows={3: (2, 1, 0)}).limit_value(F(1, 2)) is None
    # each approval rule is one step: 1 at x = 0 and at its step, 0 just
    # past it and at x = 1 (Veto's step is 1 itself, so probe just below)
    for family, step in [(Plurality(), 0), (KApproval(3), 0),
                         (GammaApproval(F(1, 3)), F(1, 3)), (Veto(), F(999, 1000))]:
        values = [family.limit_value(x) for x in (0, step, step + F(1, 1000), 1)]
        assert values == [1, 1, 0, 0] and all(type(v) is F for v in values), family.spec


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.spec)
def test_pointwise_consistency(family):
    """The per-n scores converge to the limit rule at rational quantiles."""
    eps = F(1, 100)
    grid = [2**k for k in range(1, 17)] + [10**5]
    for x in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)):
        fx = family.limit_value(x)
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
        vec = family.score_vector(n)
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
