"""Series arithmetic against the exact-polynomial window oracle."""

import random
from fractions import Fraction

import pytest

from loopgr import (
    QQ,
    ArtinianRing,
    LaurentSeries,
    PrimeField,
    RationalFunction,
    expand_shift,
    random_loop,
    stratum,
)
from loopgr.errors import (
    BackendMismatch,
    DomainError,
    InsufficientPrecision,
    NonUnitLeading,
    ZeroToPrecision,
)

from conftest import PolyModel, model_of, rand_exact_series, rand_truncated_series, rand_unit_series


def S(terms, prec=None):
    return LaurentSeries.from_terms(QQ, terms, prec)


# ---------------------------------------------------------------------------
# pinned examples


def test_repr_brackets_artinian_coefficients():
    A = ArtinianRing(QQ, 2)
    assert A.scalar_str((1, -2)) == "1 - 2*x"
    assert A.scalar_str((0, -1)) == "-x"
    assert A.scalar_str((0, 1)) == "x"
    s = LaurentSeries.from_terms(A, [(0, (-1, 2)), (1, (1, 1)), (2, (0, -1))])
    assert repr(s) == "(-1 + 2*x) + (1 + x)*t - x*t^2"
    assert repr(s.truncated(2)) == "(-1 + 2*x) + (1 + x)*t + O(t^2)"
    assert repr(S([(-1, "-1/2"), (0, 1), (1, -1)], 3)) == "-1/2*t^-1 + 1 - t + O(t^3)"


def test_add_cancellation():
    # (1 + t) + (-1 + t) = 2t
    assert S([(0, 1), (1, 1)]).add(S([(0, -1), (1, 1)])) == S([(1, 2)])


def test_add_identity():
    tinv = S([(-1, 1)])
    assert tinv.add(LaurentSeries.zero(QQ)) == tinv


def test_add_precision_window():
    # (1 + t + O(t^2)) + t^2 keeps window 2: the t^2 term is beyond it
    a = S([(0, 1), (1, 1)], 2)
    b = S([(2, 1)])
    out = a.add(b)
    assert out == S([(0, 1), (1, 1)], 2)
    assert model_of(a).add(model_of(b)).matches(out)


def test_mul_monomials():
    assert S([(-1, 1)]).mul(S([(1, 1)])) == LaurentSeries.one(QQ)


def test_mul_difference_of_squares():
    assert S([(0, 1), (1, 1)]).mul(S([(0, 1), (1, -1)])) == S([(0, 1), (2, -1)])


def test_mul_precision_window():
    # (1 + O(t^3)) * (1 + t + O(t^3)) = 1 + t + O(t^3)
    a = S([(0, 1)], 3)
    b = S([(0, 1), (1, 1)], 3)
    out = a.mul(b)
    assert out == S([(0, 1), (1, 1)], 3)
    assert model_of(a).mul(model_of(b)).matches(out)


def test_invert_geometric():
    # 1/(1 - t) = 1 + t + t^2 + ...
    out = S([(0, 1), (1, -1)]).invert(5)
    assert out == S([(e, 1) for e in range(5)], 5)


def test_invert_monomial_exact():
    out = S([(1, 1)]).invert()
    assert out == S([(-1, 1)]) and out.is_exact


def test_invert_shifted_pole():
    # 1/(t + c) = 1/c - t/c^2 + t^2/c^3 - ... for nonzero rational c
    c = Fraction(-2)  # t - 2, the expansion of 1/(t - 3) at r = 1
    out = S([(0, c), (1, 1)]).invert(4)
    # direct formula: coefficient k is (-1)^k / c^(k+1)
    expected = S([(k, Fraction((-1) ** k, 1) / c ** (k + 1)) for k in range(4)], 4)
    assert out == expected
    assert out.coefficient(0) == Fraction(-1, 2)
    assert out.coefficient(1) == Fraction(-1, 4)
    assert out.coefficient(2) == Fraction(-1, 8)
    # product with the input is 1 on the certified window
    assert out.mul(S([(0, c), (1, 1)])).agrees_with(LaurentSeries.one(QQ))


def test_invert_errors():
    with pytest.raises(ZeroToPrecision):
        LaurentSeries.zero(QQ, 8).invert()
    from loopgr import ArtinianRing

    A = ArtinianRing(QQ, 2)
    nil = LaurentSeries.from_terms(A, [(0, A.gen())])
    with pytest.raises(NonUnitLeading):
        nil.invert()


def test_working_precision_below_one_is_a_domain_error():
    # the library refuses it where a precision becomes a window length, as the CLI does
    loop = random_loop(3, 2, 1)
    with pytest.raises(DomainError):
        stratum(loop, 0)
    with pytest.raises(DomainError):
        loop.pole_bound(-1)
    with pytest.raises(DomainError):
        S([(0, 1), (1, 1)]).invert(0)
    assert S([(0, 1), (1, 1)]).invert(1).known_end == 1


def test_valuation_examples():
    assert S([(-3, 1), (0, 1)]).valuation == -3
    assert LaurentSeries.zero(QQ, 8).valuation is None
    prod = S([(0, 1), (1, -1)]).mul(S([(2, 1)]))
    assert prod.valuation == 2


def test_backend_mismatch():
    with pytest.raises(BackendMismatch):
        S([(0, 1)]).add(LaurentSeries.one(PrimeField(5)))


def test_coefficient_beyond_window_raises():
    s = S([(0, 1)], 4)
    assert s.coefficient(3) == 0
    with pytest.raises(InsufficientPrecision) as err:
        s.coefficient(4)
    assert err.value.suggested_precision is not None


@pytest.mark.parametrize(
    "precision, suggested", [(None, 32), (24, 48), (2048, 4096), (4096, None)]
)
def test_retry_suggestion_doubles_precision_up_to_the_cap(precision, suggested):
    exc = InsufficientPrecision("window too short", precision)
    assert exc.suggested_precision == suggested


# ---------------------------------------------------------------------------
# power series: Laurent series with valuation >= 0 and a finite window


def test_power_series_inverse():
    # 1/((1 - t) + O(t^4)) = 1 + t + t^2 + t^3 + O(t^4)
    p = S([(0, 1), (1, -1)], 4)
    inv = p.invert()
    assert inv == S([(e, 1) for e in range(4)], 4)
    assert p.mul(inv) == S([(0, 1)], 4)


# ---------------------------------------------------------------------------
# randomized properties


def test_ring_laws_on_random_series(any_ring):
    ring = any_ring
    rng = random.Random(f"series-laws:{ring.name}")
    for _ in range(60):
        a = rand_truncated_series(ring, rng)
        b = rand_truncated_series(ring, rng)
        c = rand_exact_series(ring, rng)
        assert a.add(b).agrees_with(b.add(a))
        assert a.mul(b).agrees_with(b.mul(a))
        assert a.mul(b.add(c)).agrees_with(a.mul(b).add(a.mul(c)))
        assert a.mul(b).mul(c).agrees_with(a.mul(b.mul(c)))


def overlap_agrees(a, b):
    """The coefficient loop `agrees_with` replaced, kept as its oracle:
    equality of every coefficient on the overlap of the known windows."""
    ends = [s.known_end for s in (a, b) if s.known_end is not None]
    tops = [s.shift + len(s.coeffs) for s in (a, b) if s.coeffs]
    if not tops:
        return True
    hi = min([max(tops)] + ends)
    lo = min(s.shift for s in (a, b) if s.coeffs)
    return all(a.coefficient(e) == b.coefficient(e) for e in range(lo, hi))


@pytest.mark.parametrize(
    "ring",
    [QQ, PrimeField(7), ArtinianRing(QQ, 2), ArtinianRing(PrimeField(3), 3)],
    ids=lambda r: r.name,
)
def test_agrees_with_matches_coefficient_loop(ring):
    rng = random.Random(f"series-agrees:{ring.name}")
    seen = set()
    for _ in range(2000):
        a = rand_exact_series(ring, rng, -3, 4)
        b = a
        for _ in range(rng.choice([0, 0, 1, 2])):
            b = b.add(LaurentSeries.from_terms(ring, [(rng.randint(-4, 5), ring.random(rng))]))
        a, b = (s if rng.random() < 0.3 else s.truncated(rng.randint(-4, 5)) for s in (a, b))
        expected = overlap_agrees(a, b)
        assert a.agrees_with(b) is expected and b.agrees_with(a) is expected
        seen.add(expected)
    assert seen == {True, False}


def test_mul_against_model(any_ring):
    ring = any_ring
    rng = random.Random(f"series-model:{ring.name}")
    for _ in range(120):
        a = rand_truncated_series(ring, rng) if rng.random() < 0.7 else rand_exact_series(ring, rng)
        b = rand_truncated_series(ring, rng) if rng.random() < 0.7 else rand_exact_series(ring, rng)
        assert model_of(a).mul(model_of(b)).matches(a.mul(b))
        assert model_of(a).add(model_of(b)).matches(a.add(b))


# LaurentSeries.dot sums products in one kernel pass; the left fold of mul and
# add is its oracle, values and windows alike.

_DOT_RINGS = [QQ, PrimeField(10007)] + [
    ArtinianRing(base, m) for base in (QQ, PrimeField(7)) for m in range(1, 5)
]


def _dot_operand(ring, rng):
    """Exactly zero, zero only on its window, exact or truncated, with
    exponents from -3 on."""
    kind = rng.choice(("zero", "window-zero", "exact", "truncated", "truncated"))
    if kind == "zero":
        return LaurentSeries.zero(ring)
    if kind == "window-zero":
        return LaurentSeries.zero(ring, rng.randint(-3, 4))
    s = rand_exact_series(ring, rng, rng.randint(-3, 1), rng.randint(1, 4))
    return s if kind == "exact" else s.truncated(rng.randint(-2, 6))


def _folded(pairs):
    acc = None
    for a, b in pairs:
        p = a.mul(b)
        acc = p if acc is None else acc.add(p)
    return acc


def _check_dot(pairs):
    got, want = LaurentSeries.dot(pairs), _folded(pairs)
    assert got == want and got.known_end == want.known_end
    if len(pairs) == 1:
        assert got == pairs[0][0].mul(pairs[0][1])


@pytest.mark.parametrize("ring", _DOT_RINGS, ids=lambda r: r.name)
def test_dot_matches_fold_of_mul_and_add(ring):
    rng = random.Random(f"series-dot:{ring.name}")
    for count in range(1, 7):
        for _ in range(40):
            _check_dot([(_dot_operand(ring, rng), _dot_operand(ring, rng)) for _ in range(count)])
    one, zero = LaurentSeries.one(ring), LaurentSeries.zero(ring)
    a = rand_exact_series(ring, rng, -2, 3)
    # a cancelling sum keeps the least window; exact zeros add no window
    cancel = [(a.truncated(4), one), (a, one.neg()), (zero, a.truncated(-5))]
    _check_dot(cancel)
    assert LaurentSeries.dot(cancel) == LaurentSeries.zero(ring, 4)
    # a product starting at or past the cut of another pair adds nothing
    far = LaurentSeries.t_power(ring, 7)
    _check_dot([(a.truncated(2), one), (far, a)])
    _check_dot([(a.truncated(2), one), (far.shifted(-5), a)])
    assert LaurentSeries.dot([(zero, a)]).is_exact_zero


def test_dot_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # denominators prime to 7 and 10007, so every value maps into each backend
    raw = st.builds(Fraction, st.integers(-50, 50), st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9)))

    def operands(ring):
        if isinstance(ring, ArtinianRing):
            scalars = st.lists(raw, min_size=ring.m, max_size=ring.m).map(ring.of)
        else:
            scalars = raw.map(ring.of)
        terms = st.lists(st.tuples(st.integers(-3, 5), scalars), max_size=5)
        ends = st.none() | st.integers(-3, 8)
        return st.builds(lambda ts, end: LaurentSeries.from_terms(ring, ts, end), terms, ends)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(_DOT_RINGS), st.data())
    def check(ring, data):
        pair = st.tuples(operands(ring), operands(ring))
        _check_dot(data.draw(st.lists(pair, min_size=1, max_size=6)))

    check()


def test_invert_two_sided_200_random_units(any_ring):
    ring = any_ring
    rng = random.Random(f"series-units:{ring.name}")
    one = LaurentSeries.one(ring)
    for _ in range(200):
        u = rand_unit_series(ring, rng)
        inv = u.invert(10)
        assert u.mul(inv).agrees_with(one)
        assert inv.mul(u).agrees_with(one)
        assert inv.valuation == -u.valuation


def test_valuation_additive_under_mul(field_ring):
    ring = field_ring
    rng = random.Random(f"series-val:{ring.name}")
    for _ in range(100):
        a = rand_unit_series(ring, rng, lo=rng.randint(-3, 0))
        b = rand_unit_series(ring, rng, lo=rng.randint(-1, 2))
        assert a.mul(b).valuation == a.valuation + b.valuation


def test_precision_monotone_under_refinement():
    # recomputing a pipeline with a larger window never changes reported
    # coefficients
    rng = random.Random("series-monotone")
    for _ in range(50):
        u = rand_unit_series(QQ, rng)
        lowp = u.invert(6)
        highp = u.invert(12)
        assert highp.truncated(lowp.known_end) == lowp
    f = RF([(0, 1), (1, 1)], [(0, 2), (1, 1), (3, 1)])
    low = f.expand_at(5, 4)
    high = f.expand_at(5, 16)
    assert high.truncated(low.known_end) == low


def test_exact_division_fast_path():
    a = S([(0, 1), (1, 3), (2, 2)])  # (1 + t)(1 + 2t)
    b = S([(0, 1), (1, 2)])
    q = a.div(b)
    assert q.is_exact and q == S([(0, 1), (1, 1)])
    # non-divisible falls back to a truncated quotient
    q2 = S([(0, 1), (1, 1)]).div(S([(0, 1), (1, -1)]), 5)
    assert not q2.is_exact
    assert q2.mul(S([(0, 1), (1, -1)])).agrees_with(S([(0, 1), (1, 1)]))


def test_arithmetic_does_not_coerce_ring_elements(monkeypatch):
    # sums, products and reciprocals are ring elements already; only values
    # from outside the ring pass through QQ.of
    a = S([(-1, 2), (0, Fraction(1, 3)), (2, -5)])
    b = S([(0, 3), (1, Fraction(-1, 2))], 6)
    exact = S([(0, 1), (1, 2)])

    def refuse(x):
        raise AssertionError(f"QQ.of({x!r}) called")

    monkeypatch.setattr(QQ, "of", refuse)
    assert a.mul(b).coefficient(-1) == 6
    assert a.add(b).coefficient(0) == Fraction(10, 3)
    assert a.sub(a).is_exact_zero
    assert b.invert().mul(b).agrees_with(LaurentSeries.one(QQ))
    assert a.mul(exact).div(exact) == a
    assert a.div(b).mul(b).agrees_with(a)


# ---------------------------------------------------------------------------
# expand_shift


def RF(num, den=((0, 1),)):
    return RationalFunction.from_terms(QQ, num, den)


def test_expand_shift_linear():
    out = expand_shift(RF([(1, 1)]), 5)
    assert out == S([(0, 5), (1, 1)])


def test_expand_shift_pole_at_center():
    # 1/(t - 3) expanded at 3 is t^-1, exactly
    out = expand_shift(RF([(0, 1)], [(0, -3), (1, 1)]), 3)
    assert out == S([(-1, 1)]) and out.is_exact


def test_expand_shift_geometric_unit():
    # 1/(t - 3) at 1: 1/(t - 2) = -1/2 - t/4 - t^2/8 - ...
    out = expand_shift(RF([(0, 1)], [(0, -3), (1, 1)]), 1, 6)
    for k in range(6):
        assert out.coefficient(k) == -Fraction(1, 2 ** (k + 1))


def _rand_rf(ring, rng):
    num = [(e, ring.random(rng)) for e in range(rng.randint(0, 2) + 1)]
    den = [(0, ring.random_unit(rng)), (rng.randint(1, 2), ring.random_unit(rng))]
    f = RationalFunction.from_terms(ring, num, den)
    return f


def test_expand_shift_is_ring_homomorphism(field_ring):
    ring = field_ring
    rng = random.Random(f"expand-hom:{ring.name}")
    for _ in range(100):
        f = _rand_rf(ring, rng)
        g = _rand_rf(ring, rng)
        r = ring.random(rng)
        fg = f.mul(g).expand_at(r, 8)
        gf = f.expand_at(r, 8).mul(g.expand_at(r, 8))
        assert fg.agrees_with(gf)
        s1 = f.add(g).expand_at(r, 8)
        s2 = f.expand_at(r, 8).add(g.expand_at(r, 8))
        assert s1.agrees_with(s2)


def test_expand_shift_unit_at_other_points():
    # 1/(t - r_j) expanded at r_i is a unit power series when r_i != r_j
    rng = random.Random("expand-units")
    for _ in range(50):
        rj = QQ.random(rng)
        ri = QQ.random(rng)
        if ri == rj:
            continue
        out = expand_shift(RF([(0, 1)], [(0, -rj), (1, 1)]), ri, 6)
        assert out.valuation == 0
        assert QQ.is_unit(out.coefficient(0))
        assert out.coefficient(0) == 1 / (ri - rj)


def test_zero_rational_function_is_canonical():
    c = RF([(0, 1)], [(0, 1), (1, 1)])  # 1/(1 + t)
    zero = RationalFunction.constant(QQ, 0)
    for z in (c.sub(c), RF([], [(0, 1), (2, 3)]), c.mul(zero)):
        assert z.den == (1,) and z == zero and hash(z) == hash(zero)
        assert z.pole_order_at(-1) == 0
    with pytest.raises(DomainError):
        RF([(0, 1)], [])


def test_rational_function_cancellation():
    # (t^2 - 1)/(t - 1) = t + 1, so no pole at 1
    f = RF([(0, -1), (2, 1)], [(0, -1), (1, 1)])
    assert f.pole_order_at(1) == 0
    assert f.expand_at(1) == S([(0, 2), (1, 1)])
