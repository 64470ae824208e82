"""Glued-bundle section counts against hand enumerations, plus the
invariance properties of the splitting type."""

import random

import pytest

from loopgr import (
    QQ,
    ArtinianRing,
    LaurentSeries,
    LoopMatrix,
    MarkedPoint,
    ModificationDatum,
    PrimeField,
    RationalFunction,
    all_strata_zero,
    elementary_loop,
    expand_at,
    h0,
    is_isomorphic,
    is_trivial,
    mat_mul,
    modify,
    monomial_loop,
    random_loop,
    random_positive,
    splitting_type,
    strata_of,
    stratum,
)
from loopgr import p1bundles
from loopgr.errors import DomainError, InsufficientPrecision, MarkedPointError, UnboundedPole

from conftest import rand_exact_series


def one_point(loop, r="0"):
    return ModificationDatum.at_points(QQ, [r], [loop])


def RF(num, den=((0, 1),)):
    return RationalFunction.from_terms(QQ, num, den)


def unipotent():
    return elementary_loop(QQ, 2, 0, 1, LaurentSeries.t_power(QQ, -1))


# ---------------------------------------------------------------------------
# expand_at


def test_expand_at_linear():
    d = one_point(LoopMatrix.identity(QQ, 1), r="2")
    out = expand_at([RF([(1, 1)])], d, 0)
    assert out[0] == LaurentSeries.from_terms(QQ, [(0, 2), (1, 1)])


def test_expand_at_own_pole():
    d = one_point(monomial_loop(QQ, (-1,)), r="3")
    out = expand_at([RF([(0, 1)], [(0, -3), (1, 1)])], d, 0)
    assert out[0] == LaurentSeries.t_power(QQ, -1)


def test_expand_at_two_pole_product():
    # 1/((t - r1)(t - r2)) at r1 with r1 - r2 = 1: t^-1 (1 + t)^-1
    d = ModificationDatum.at_points(
        QQ, ["1", "0"], [monomial_loop(QQ, (-1,)), monomial_loop(QQ, (-1,))]
    )
    f = RF([(0, 1)], [(1, 1), (2, 1)])  # 1/(t(t+... wait: (t-1)(t-0) = t^2 - t
    f = RF([(0, 1)], [(1, -1), (2, 1)])
    out = expand_at([f], d, 0, precision=5)[0]
    # oracle: product of the separate expansions
    a = RF([(0, 1)], [(0, -1), (1, 1)]).expand_at(1, 8)
    b = RF([(0, 1)], [(0, 0), (1, 1)]).expand_at(1, 8)
    assert out.agrees_with(a.mul(b))
    assert out.coefficient(-1) == 1 and out.coefficient(0) == -1 and out.coefficient(1) == 1


def test_expand_at_rejects_alien_poles():
    d = one_point(LoopMatrix.identity(QQ, 1), r="0")
    with pytest.raises(DomainError):
        expand_at([RF([(0, 1)], [(0, -5), (1, 1)])], d, 0)


def test_expand_at_pole_check_sums_pole_orders():
    # accepted when the pole orders at the marked points sum to deg den
    d = one_point(LoopMatrix.identity(QQ, 1), r="1")
    double = RF([(0, 1)], [(0, 1), (1, -2), (2, 1)])  # 1/(t - 1)^2
    assert expand_at([double], d, 0) == [LaurentSeries.t_power(QQ, -2)]
    for den in (
        [(0, 1), (2, 1)],  # t^2 + 1: no rational root
        [(0, -5), (1, 11), (2, -7), (3, 1)],  # (t - 1)^2 (t - 5), 5 not marked
    ):
        with pytest.raises(DomainError, match="away from the marked points"):
            expand_at([RF([(0, 1)], den)], d, 0)


def test_expand_at_zero_component_and_double_pole():
    # c - c is zero whatever its denominator was; 1/(t+1)^2 has a double pole
    # at the marked point -1 and none elsewhere
    d = one_point(monomial_loop(QQ, (-2,)), r="-1")
    c = RF([(0, 1)], [(0, 1), (1, 1)])
    out = expand_at([c.sub(c), c.mul(c)], d, 0)
    assert out == [LaurentSeries.zero(QQ), LaurentSeries.t_power(QQ, -2)]


# ---------------------------------------------------------------------------
# h0 hand oracles


def test_h0_line_bundle_trivial():
    # O on P^1: h0(m) = m + 1 for m >= 0, else 0
    d = one_point(LoopMatrix.identity(QQ, 1))
    assert [h0(d, m) for m in (-2, -1, 0, 1, 2)] == [0, 0, 1, 2, 3]


def test_h0_degree_one_bundle():
    # loop (t^-1) at r = 0: sections with pole order <= 1 at 0 and <= m at
    # infinity are spanned by 1/t, 1, t, ..., t^m, so h0 = m + 2 for m >= -1
    d = one_point(monomial_loop(QQ, (-1,)))
    assert [h0(d, m) for m in (-3, -2, -1, 0, 1, 2)] == [0, 0, 1, 2, 3, 4]


def test_h0_unipotent_by_hand():
    # alpha = [[1, t^-1], [0, 1]] at r = 0, twist 0.  Candidates
    # v = (w1/t, w2/t) with deg wi <= 1; alpha^-1 v = (v1 - t^-1 v2, v2).
    # Pole-freeness forces w2(0) = 0 and w1(0) = w2'(0): two independent
    # conditions on four unknowns, so h0 = 2.
    d = one_point(unipotent())
    assert h0(d, 0) == 2


def test_h0_empty_datum():
    d = ModificationDatum.empty(QQ, 2)
    assert h0(d, 0) == 2
    assert h0(d, 1) == 4
    assert h0(d, -1) == 0
    assert splitting_type(d).a == (0, 0)


def test_affine_and_infinity_presentations_agree():
    # the same monomial twist presented at an affine point and at infinity
    # must give isomorphic bundles: a cross-check of the two code paths
    rng = random.Random("p1-inf-cross")
    for _ in range(8):
        n = rng.choice((1, 2))
        lam = tuple(rng.randint(-2, 2) for _ in range(n))
        d_aff = one_point(monomial_loop(QQ, lam))
        d_inf = ModificationDatum(QQ, n, (), (), monomial_loop(QQ, lam))
        assert splitting_type(d_aff) == splitting_type(d_inf)
        assert is_isomorphic(d_aff, d_inf)


def test_h0_infinity_loop_only():
    # loop (s^-1) at infinity: the twisted lattice allows pole order m + 1
    d = ModificationDatum(QQ, 1, (), (), monomial_loop(QQ, (-1,)))
    assert [h0(d, m) for m in (-3, -2, -1, 0, 1)] == [0, 0, 1, 2, 3]
    assert splitting_type(d).a == (1,)
    assert strata_of(d)[0].entries == (-1,)


# ---------------------------------------------------------------------------
# splitting types


def test_splitting_identity():
    d = ModificationDatum.at_points(
        QQ, ["0", "1"], [LoopMatrix.identity(QQ, 2), LoopMatrix.identity(QQ, 2)]
    )
    assert splitting_type(d).a == (0, 0)
    assert is_trivial(d)


def test_splitting_diag_versus_unipotent_separation():
    # same stratum (1, -1), different bundles: the extension splits
    diag = one_point(monomial_loop(QQ, (-1, 1)))
    assert splitting_type(diag).a == (1, -1)
    assert stratum(diag.loops[0]).entries == (1, -1)
    uni = one_point(unipotent())
    assert splitting_type(uni).a == (0, 0)
    assert stratum(uni.loops[0]).entries == (1, -1)
    assert is_trivial(uni) and not is_trivial(diag)


def test_monomial_loop_splitting_is_negated_sort():
    rng = random.Random("p1-monomial")
    for _ in range(10):
        lam = [rng.randint(-2, 2) for _ in range(2)]
        d = one_point(monomial_loop(QQ, lam))
        assert splitting_type(d).a == tuple(sorted((-x for x in lam), reverse=True))


def test_is_isomorphic_same_degree_one():
    d1 = one_point(monomial_loop(QQ, (-1,)), r="0")
    d2 = one_point(monomial_loop(QQ, (-1,)), r="1")
    assert is_isomorphic(d1, d2)
    assert not is_isomorphic(d1, one_point(LoopMatrix.identity(QQ, 1)))


def test_degree_law_random():
    rng = random.Random("p1-degree")
    for _ in range(20):
        n = rng.choice((1, 2))
        pts, loops = [], []
        for r in ("0", "1"):
            if rng.random() < 0.8:
                pts.append(r)
                loops.append(random_loop(n, rng.randint(0, 2), seed=rng.randrange(10**6)))
        inf = (
            random_loop(n, 1, seed=rng.randrange(10**6)) if rng.random() < 0.4 else None
        )
        if not pts and inf is None:
            continue
        d = ModificationDatum(QQ, n, tuple(pts), tuple(loops), inf)
        degree = -sum(lp.det().valuation for lp in list(loops) + ([inf] if inf else []))
        assert splitting_type(d).degree() == degree


def test_gluing_locality_identity_point():
    base = one_point(monomial_loop(QQ, (-1, 1)))
    bigger = modify(base, "5", LoopMatrix.identity(QQ, 2))
    assert splitting_type(bigger) == splitting_type(base)


def test_positive_right_multiplication_irrelevant():
    rng = random.Random("p1-positive")
    for _ in range(10):
        lp = random_loop(2, 1, seed=rng.randrange(10**6))
        d = one_point(lp)
        p = random_positive(2, seed=rng.randrange(10**6))
        d2 = one_point(mat_mul(lp, LoopMatrix(p.rows)))
        assert splitting_type(d) == splitting_type(d2)


# ---------------------------------------------------------------------------
# global re-trivialization

from conftest import global_rational_loop, retrivialize


def test_global_retrivialization_invariance():
    rng = random.Random("p1-retriv")
    for _ in range(8):
        pts = ["0", "1"]
        loops = [random_loop(2, 1, seed=rng.randrange(10**6)) for _ in pts]
        d = ModificationDatum.at_points(QQ, pts, loops)
        m = global_rational_loop(QQ, [QQ.of(p) for p in pts], rng)
        d2 = retrivialize(d, m)
        assert splitting_type(d2) == splitting_type(d)


# ---------------------------------------------------------------------------
# strata and triviality


def test_strata_of_mixed_loops():
    d = ModificationDatum.at_points(
        QQ, ["0", "1"], [monomial_loop(QQ, (1, -1)), unipotent()]
    )
    assert [lam.entries for lam in strata_of(d)] == [(1, -1), (1, -1)]
    assert not all_strata_zero(d)


def test_all_strata_zero_on_positive_loops():
    rng = random.Random("p1-strata0")
    for _ in range(10):
        loops = [
            LoopMatrix(random_positive(2, seed=rng.randrange(10**6)).rows)
            for _ in range(2)
        ]
        d = ModificationDatum.at_points(QQ, ["0", "1"], loops)
        assert all_strata_zero(d)
        assert is_trivial(d)


def test_stratum_zero_implies_trivial_but_not_conversely():
    # the converse fails: the unipotent datum is trivial with nonzero stratum
    uni = one_point(unipotent())
    assert is_trivial(uni)
    assert not all_strata_zero(uni)


# ---------------------------------------------------------------------------
# the scan range and the triviality test


def total_pole_bound(d):
    """B: the pole bounds of the loops at the points and at infinity."""
    loops = list(d.loops) + ([d.infinity_loop] if d.infinity_loop else [])
    return sum(lp.pole_bound() for lp in loops)


def test_splitting_type_matches_every_section_count():
    # h0 read one twist at a time is the oracle, on the range -(nB+1)..nB+1
    # that the scan read before it was cut to -B-1..B
    for seed in range(3):
        rng = random.Random(f"p1-oracle:{seed}")
        pts = ["0", "1"][: rng.randint(1, 2)]
        loops = [random_loop(2, 1, rng.randrange(10**6)) for _ in pts]
        d = ModificationDatum.at_points(QQ, pts, loops, random_loop(2, 1, rng.randrange(10**6)))
        st = splitting_type(d)
        spread = d.n * total_pole_bound(d) + 1
        assert all(st.sections(m) == h0(d, m) for m in range(-spread, spread + 1))


def test_splitting_type_and_is_trivial_call_counts(monkeypatch):
    calls, passes, translations, inverted = [], [], [], []
    section_counts, translated = p1bundles._section_counts, p1bundles._translated
    invert = LaurentSeries.invert

    def counting_h0(datum, m, precision=None):
        calls.append(m)
        return h0(datum, m, precision)

    def counting_passes(datum, low, high, precision):
        passes.append((low, high))
        return section_counts(datum, low, high, precision)

    def counting_translated(p, r):
        translations.append((p, r))
        return translated(p, r)

    def counting_invert(self, precision=None):
        inverted.append(self)
        return invert(self, precision)

    monkeypatch.setattr(p1bundles, "h0", counting_h0)
    monkeypatch.setattr(p1bundles, "_section_counts", counting_passes)
    monkeypatch.setattr(p1bundles, "_translated", counting_translated)
    monkeypatch.setattr(LaurentSeries, "invert", counting_invert)
    d = ModificationDatum.at_points(
        QQ, ["0", "1"], [random_loop(2, 1, 3), unipotent()], monomial_loop(QQ, (1, -1))
    )
    bound = total_pole_bound(d)
    assert bound >= 3
    splitting_type(d)
    # one pass for m = -B-1..B; its rows are built once: each pole bound is
    # 1, so den = t(t - 1) is formed once at each place from one translated
    # factor t per point, den(t + 0) and den(t + 1) at the points and den at
    # infinity, where it is reversed; each of the three expansions is
    # inverted once
    assert calls == []
    assert passes == [(-bound - 1, bound)]
    t = LaurentSeries.t_power(QQ, 1)
    den = LaurentSeries.from_terms(QQ, [(1, -1), (2, 1)])
    at_one = LaurentSeries.from_terms(QQ, [(1, 1), (2, 1)])  # den(t + 1)
    reversed_den = LaurentSeries.from_terms(QQ, [(0, 1), (1, -1)])  # 1 - s
    assert translations == [(t, 0), (t, -1), (t, 1), (t, 0), (t, 0), (t, -1)]
    assert [inverted.count(s) for s in (den, at_one, reversed_den)] == [1, 1, 1]
    calls.clear()
    assert is_trivial(one_point(unipotent()))
    assert calls == [-1, 0]
    # h0(-1) > 0 already shows a positive a_i
    calls.clear()
    assert not is_trivial(one_point(monomial_loop(QQ, (-1, 1))))
    assert calls == [-1]


def test_h0_above_the_pole_bound_is_linear_in_the_twist():
    # every a_i >= -B, so h0(m) = h0(B) + n(m - B) for m > B; no rows are
    # built beyond twist B, so a huge twist costs what h0(B) costs
    d = ModificationDatum.at_points(QQ, ["0", "1"], [random_loop(2, 1, 3), unipotent()])
    st, bound = splitting_type(d), total_pole_bound(d)
    for m in (bound + 1, bound + 3, 10**9, -(10**9)):
        assert h0(d, m) == st.sections(m)


def test_splitting_type_bound_and_degree_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=20, deadline=None, database=None)
    @hypothesis.given(
        st.sampled_from([QQ, PrimeField(10007)]),
        st.integers(1, 2),
        st.lists(st.integers(0, 1), max_size=2),
        st.booleans(),
        st.integers(0, 10**6),
    )
    def check(ring, n, poles, at_infinity, seed):
        loops = [random_loop(n, p, seed + i, ring) for i, p in enumerate(poles)]
        inf = random_loop(n, 1, seed - 1, ring) if at_infinity else None
        d = ModificationDatum(ring, n, tuple(str(i) for i in range(len(poles))), tuple(loops), inf)
        bound = total_pole_bound(d)
        a = splitting_type(d).a
        assert all(-bound <= x <= bound for x in a)
        assert sum(a) == -sum(lp.det().valuation for lp in loops + ([inf] if inf else []))
        assert is_trivial(d) == all(x == 0 for x in a)

    check()


# ---------------------------------------------------------------------------
# h0 shape and modification


def test_h0_increments_monotone_bounded():
    rng = random.Random("p1-shape")
    for _ in range(6):
        n = rng.choice((1, 2))
        lp = random_loop(n, 2, seed=rng.randrange(10**6))
        d = one_point(lp)
        lo, hi = -2 * n * 2 - 1, 2 * n * 2 + 1
        table = [h0(d, m) for m in range(lo, hi + 1)]
        deltas = [b - a for a, b in zip(table, table[1:])]
        assert all(0 <= x <= n for x in deltas)
        assert all(a <= b for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] == n


def test_modify_append_and_compose():
    d = ModificationDatum.empty(QQ, 2)
    d1 = modify(d, "0", monomial_loop(QQ, (-1, 1)))
    assert splitting_type(d1).a == (1, -1)
    d2 = modify(d1, "0", monomial_loop(QQ, (1, -1)))
    assert len(d2.points) == 1
    assert splitting_type(d2).a == (0, 0)
    d3 = modify(d1, "1", LoopMatrix.identity(QQ, 2))
    assert len(d3.points) == 2
    assert splitting_type(d3) == splitting_type(d1)


def test_marked_point_values_are_coerced_into_the_ring():
    # a MarkedPoint's value is read through ring.of, as a bare value is: -1
    # and 6 are one point of GF(7), and a float is no point of QQ
    F = PrimeField(7)
    a = monomial_loop(F, (-1, 1))
    d = ModificationDatum(F, 2, (MarkedPoint(-1),), (a,))
    assert d.points == (MarkedPoint(6),)
    for point in (6, MarkedPoint(-1)):
        composed = modify(d, point, a)
        assert composed.points == (MarkedPoint(6),)
        assert splitting_type(composed).a == (2, -2)
    with pytest.raises(DomainError, match="cannot coerce 0.5 into QQ"):
        ModificationDatum(QQ, 1, (MarkedPoint(0.5),), (LoopMatrix.identity(QQ, 1),))


def test_marked_points_need_unit_differences():
    from loopgr import ArtinianRing

    A = ArtinianRing(QQ, 2)
    x = A.gen()
    with pytest.raises(MarkedPointError):
        ModificationDatum(
            A,
            1,
            (MarkedPoint(A.zero), MarkedPoint(x)),
            (LoopMatrix.identity(A, 1), LoopMatrix.identity(A, 1)),
        )


def test_datum_validation():
    with pytest.raises(MarkedPointError):
        ModificationDatum.at_points(
            QQ, ["1", "1"], [LoopMatrix.identity(QQ, 1), LoopMatrix.identity(QQ, 1)]
        )
    with pytest.raises(DomainError):
        ModificationDatum.at_points(QQ, ["0"], [LoopMatrix.identity(QQ, 1)]).with_infinity(
            LoopMatrix.identity(QQ, 2)
        )


# [[t^2, a], [0, t^-2]]: its inverse has the entry -a, which meets the basis
# of sections below t^0, so an a that is zero only on a short window cannot
# be read as zero; exact 0 and 1 are the controls
CERTIFIED_ENTRIES = [
    pytest.param(LaurentSeries.zero(QQ, 0), None, id="O(t^0)"),
    pytest.param(LaurentSeries.zero(QQ, 1), None, id="O(t^1)"),
    pytest.param(LaurentSeries.zero(QQ, 3), (2, -2), id="O(t^3)"),
    pytest.param(LaurentSeries.zero(QQ), (2, -2), id="0"),
    pytest.param(LaurentSeries.one(QQ), (0, 0), id="1"),
]


@pytest.mark.parametrize("at_infinity", [False, True], ids=["point", "infinity"])
@pytest.mark.parametrize("entry, expected", CERTIFIED_ENTRIES)
def test_zero_to_precision_entry_is_certified(entry, expected, at_infinity):
    loop = LoopMatrix(
        [
            [LaurentSeries.t_power(QQ, 2), entry],
            [LaurentSeries.zero(QQ), LaurentSeries.t_power(QQ, -2)],
        ]
    )
    d = ModificationDatum(QQ, 2, (), (), loop) if at_infinity else one_point(loop)
    if expected is None:
        with pytest.raises(InsufficientPrecision):
            h0(d, -1)
        with pytest.raises(InsufficientPrecision):
            splitting_type(d)
    else:
        assert splitting_type(d).a == expected


def test_datum_rejects_only_exactly_singular_loops():
    # the cofactor determinant of this truncated loop is O(t^0), but its
    # inverse is certified, so the datum builds and the section counts
    # report the short window instead of a domain error
    g = random_loop(4, 1, 0)
    tr = LoopMatrix([[e.truncated(3) for e in r] for r in g.rows])
    assert tr.det().is_zero_to_precision
    d = one_point(tr)
    with pytest.raises(InsufficientPrecision):
        h0(d, 0)
    with pytest.raises(InsufficientPrecision):
        splitting_type(d)
    rows = [list(r) for r in g.rows]
    rows[3] = rows[1]
    with pytest.raises(DomainError):
        one_point(LoopMatrix(rows))


def test_small_loop_singular_on_its_window_gives_exact_counts():
    # rank 3: the determinant of the truncated loop is zero on its window,
    # and the inverse comes from elimination, as it would at rank 4
    g = random_loop(3, 1, 2)
    tr = LoopMatrix([[e.truncated(1) for e in r] for r in g.rows])
    assert tr.det().is_zero_to_precision
    assert h0(one_point(tr), 0) == h0(one_point(g), 0) == 4
    assert splitting_type(one_point(tr)).a == splitting_type(one_point(g)).a == (1, 0, 0)


def test_truncated_small_loop_uses_the_longer_inverse_windows():
    # every entry truncated at t^4: the cofactor inverse alone leaves the
    # section counts undecided, the elimination windows decide them
    g = random_loop(3, 2, 2)
    tr = LoopMatrix([[e.truncated(4) for e in r] for r in g.rows])
    assert splitting_type(one_point(tr)).a == splitting_type(one_point(g)).a == (1, 0, 0)


@pytest.mark.parametrize("n", [-3, 0, 4097, 2.0])
def test_datum_rank_is_an_int_in_range(n):
    # the rank sizes the trivial splitting type and every section count
    with pytest.raises(DomainError, match="4096"):
        ModificationDatum.empty(QQ, n)


def test_datum_rank_cap_is_inclusive():
    assert ModificationDatum.empty(QQ, 1).n == 1
    assert ModificationDatum.empty(QQ, 4096).n == 4096


def test_all_loops_lists_the_points_then_infinity():
    a, b, c = (random_loop(2, 1, s) for s in range(3))
    d = ModificationDatum.at_points(QQ, ["0", "1"], [a, b])
    assert d.all_loops == (a, b)
    assert d.with_infinity(c).all_loops == (a, b, c)
    assert ModificationDatum.empty(QQ, 2).all_loops == ()
    assert strata_of(d.with_infinity(c)) == [stratum(lp) for lp in (a, b, c)]


def test_product_coefficient_suggestion_exceeds_precision_in_use():
    # [[t^2, O(t^0)], [0, t^-2]] at 0: the row at t^-2 reads a product past
    # its window, whatever the working precision
    t = LaurentSeries.t_power
    loop = LoopMatrix([[t(QQ, 2), LaurentSeries.zero(QQ, 0)], [LaurentSeries.zero(QQ), t(QQ, -2)]])
    d = one_point(loop)
    for precision, suggested in ((None, 32), (1024, 2048), (4096, None)):
        with pytest.raises(InsufficientPrecision, match="exponent -2 of a product") as exc:
            h0(d, -1, precision)
        assert exc.value.suggested_precision == suggested


def test_a_pole_hidden_below_t0_is_unbounded():
    # [[O(t^-1), 1], [1, 0]]: the (1,1) entry may hide any pole from t^-1 on
    one, zero = LaurentSeries.one(QQ), LaurentSeries.zero(QQ)
    d = ModificationDatum.at_points(QQ, ["0"], [LoopMatrix([[LaurentSeries.zero(QQ, -1), one], [one, zero]])])
    with pytest.raises(UnboundedPole, match="finite pole bound"):
        h0(d, 0)
    with pytest.raises(UnboundedPole):
        splitting_type(d)


def test_section_counting_refuses_a_non_field_before_the_pole_bound():
    # the (2,2) entry hides its pole, so over k[x]/(x^2) the field check must
    # come before any pole bound is attempted
    A = ArtinianRing(QQ, 2)
    one = LaurentSeries.one(A)
    loop = LoopMatrix([[LaurentSeries.t_power(A, -1), one], [one, LaurentSeries.zero(A, -1)]])
    d = ModificationDatum.at_points(A, ["0"], [loop])
    with pytest.raises(DomainError, match="field backend"):
        h0(d, 0)
    with pytest.raises(DomainError, match="field backend"):
        splitting_type(d)
    # the pole bound alone still answers over k[x]/(x^m)
    zero = LaurentSeries.zero(A)
    u = LaurentSeries.from_terms(A, [(-1, A.add(A.one, A.gen()))])
    assert LoopMatrix([[u, zero], [zero, LaurentSeries.t_power(A, 1)]]).pole_bound() == 1
