"""Series arithmetic against the exact-polynomial window oracle."""

import math
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
from loopgr import series
from loopgr.errors import (
    BackendMismatch,
    DomainError,
    InsufficientPrecision,
    NonUnitLeading,
    ZeroToPrecision,
)

from conftest import (
    PolyModel,
    inv_oracle,
    model_of,
    mul_oracle,
    poly_add,
    poly_divmod,
    poly_from_terms,
    poly_mul,
    poly_neg,
    poly_of,
    poly_strip_root,
    rand_exact_series,
    rand_truncated_series,
    rand_unit_series,
    rf_expand_oracle,
    rf_oracle,
)


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


def test_truncated_returns_self_unless_the_window_shrinks():
    # series are canonical, so a window that does not shrink keeps the object
    exact, cut = S([(0, 2), (3, 1)]), S([(-1, Fraction(1, 2)), (0, Fraction(1, 3)), (2, 5)], 6)
    for s, end in ((exact, None), (cut, None), (cut, 6), (cut, 9)):
        assert s.truncated(end) is s
    # a shorter window gives the series built on it, in canonical form
    for s, end, want in (
        (exact, 4, S([(0, 2), (3, 1)], 4)),
        (cut, 0, S([(-1, Fraction(1, 2))], 0)),
        (cut, -1, LaurentSeries.zero(QQ, -1)),
        (cut, -5, LaurentSeries.zero(QQ, -5)),
    ):
        got = s.truncated(end)
        assert got == want and got is not s
        _canonical(got)


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


# The packed kernels against the generic scalar kernels of conftest, at the
# level of series: values and windows alike, for products, sums of products
# and reciprocals.


def _window_end(*ends):
    finite = [e for e in ends if e is not None]
    return min(finite) if finite else None


def _oracle_mul(a, b):
    ring = a.ring
    if a.is_exact_zero or b.is_exact_zero:
        return LaurentSeries.zero(ring)
    ca, cb = a.coeffs, b.coeffs
    va, vb = a.shift if ca else a.known_end, b.shift if cb else b.known_end
    end = _window_end(
        None if a.known_end is None else a.known_end + vb,
        None if b.known_end is None else b.known_end + va,
    )
    shift, size = a.shift + b.shift, len(ca) + len(cb) - 1 if ca and cb else 0
    if end is not None:
        size = max(0, min(size, end - shift))
    return LaurentSeries.make(ring, shift, mul_oracle(ring, ca, cb, size), end)


def _oracle_dot(pairs):
    ring = pairs[0][0].ring
    terms, ends = {}, []
    for a, b in pairs:
        p = _oracle_mul(a, b)
        ends.append(p.known_end)
        for e, c in enumerate(p.coeffs, p.shift):
            terms[e] = ring.add(terms.get(e, ring.zero), c)
    end = _window_end(*ends)
    if not terms:
        return LaurentSeries.zero(ring, end)
    lo = min(terms)
    return LaurentSeries.make(ring, lo, [terms.get(e, ring.zero) for e in range(lo, max(terms) + 1)], end)


def _oracle_invert(a, precision):
    cs = a.coeffs
    if len(cs) == 1 and a.is_exact:
        length, end = 1, None
    else:
        length = a.known_end - a.shift if a.known_end is not None else precision
        end = -a.shift + length
    return LaurentSeries.make(a.ring, -a.shift, inv_oracle(a.ring, list(cs), length), end)


def _same(got, want):
    assert got == want and hash(got) == hash(want)
    assert (got.shift, got.coeffs, got.known_end) == (want.shift, want.coeffs, want.known_end)


def _canonical(s):
    """s has the one packed form: make from its scalars gives the same vector."""
    remade = LaurentSeries.make(s.ring, s.shift, s.coeffs, s.known_end)
    assert remade.vec == s.vec and remade == s and hash(remade) == hash(s)
    d, ints = s.vec
    base = s.ring.base if isinstance(s.ring, ArtinianRing) else s.ring
    assert d > 0 and len(ints) % s.ring.width == 0
    assert all(0 <= c < base.p for c in ints) if base is not QQ else math.gcd(d, *ints) == 1
    if ints:  # no zero coefficient at either end
        w = s.ring.width
        assert any(ints[:w]) and any(ints[-w:])


@pytest.mark.parametrize("end", [None, -2, 0, 3])
@pytest.mark.parametrize(
    "ring",
    [QQ, PrimeField(10007), PrimeField(7), ArtinianRing(QQ, 3), ArtinianRing(PrimeField(7), 2)],
    ids=lambda r: r.name,
)
def test_zero_is_the_packed_zero_of_make(ring, end):
    z, made = LaurentSeries.zero(ring, end), LaurentSeries.make(ring, 0, (), end)
    assert (z.shift, z.vec, z.known_end, hash(z)) == (made.shift, made.vec, made.known_end, hash(made))
    assert z == made and z.vec == ring.zero_vec


_PACKED_RINGS = [QQ, PrimeField(10007)] + [
    ArtinianRing(base, m) for base in (QQ, PrimeField(7)) for m in range(1, 5)
]


def _series_strategy(st, ring):
    """Exactly zero, zero only on its window, negative shifts, exact or
    truncated windows."""
    raw = st.builds(Fraction, st.integers(-50, 50), st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9)))
    if isinstance(ring, ArtinianRing):
        scalars = st.lists(raw, min_size=ring.m, max_size=ring.m).map(ring.of)
    else:
        scalars = raw.map(ring.of)
    terms = st.lists(st.tuples(st.integers(-4, 5), scalars), max_size=6)
    return st.builds(lambda ts, end: LaurentSeries.from_terms(ring, ts, end), terms, st.none() | st.integers(-3, 8))


def test_packed_kernels_match_scalar_oracles_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(_PACKED_RINGS), st.data())
    def check(ring, data):
        series = _series_strategy(st, ring)
        pairs = data.draw(st.lists(st.tuples(series, series), min_size=1, max_size=5))
        a, b = pairs[0]
        _same(a.mul(b), _oracle_mul(a, b))
        _same(LaurentSeries.dot(pairs), _oracle_dot(pairs))
        # a pair whose product starts at the cut of another pair's window
        far = LaurentSeries.t_power(ring, data.draw(st.integers(0, 6)))
        cut = [(a.truncated(far.shift), LaurentSeries.one(ring)), (far, b)]
        _same(LaurentSeries.dot(cut), _oracle_dot(cut))
        if a.has_unit_lead():
            precision = data.draw(st.integers(1, 12))
            _same(a.invert(precision), _oracle_invert(a, precision))

    check()


def test_kernel_outputs_are_canonical_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(_PACKED_RINGS), st.data())
    def check(ring, data):
        series = _series_strategy(st, ring)
        a, b, c = data.draw(series), data.draw(series), data.draw(series)
        outputs = [a, a.mul(b), a.add(b), a.sub(a), a.neg(), LaurentSeries.dot([(a, b), (c, b)])]
        outputs += [a.truncated(data.draw(st.integers(-4, 8))), a.shifted(3)]
        outputs += [LaurentSeries.one(ring), LaurentSeries.t_power(ring, data.draw(st.integers(-3, 3)))]
        if a.has_unit_lead():
            outputs.append(a.invert(data.draw(st.integers(1, 12))))
        if isinstance(ring, ArtinianRing):
            outputs.append(a.map_coefficients(ring.residue, ring.base))
        else:
            lift = ArtinianRing(ring, 3)
            outputs.append(a.map_coefficients(lift.from_base, lift))
            outputs.append(a.lifted(lift))
            assert outputs[-1] == outputs[-2]  # the packed lift is the scalar one
        for s in outputs:
            _canonical(s)

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
        assert z.den == LaurentSeries.one(QQ) and z == zero and hash(z) == hash(zero)
        assert z.pole_order_at(-1) == 0
    with pytest.raises(DomainError):
        RF([(0, 1)], [])


def test_rational_function_cancellation():
    # (t^2 - 1)/(t - 1) = t + 1, so no pole at 1
    f = RF([(0, -1), (2, 1)], [(0, -1), (1, 1)])
    assert f.pole_order_at(1) == 0
    assert f.expand_at(1) == S([(0, 2), (1, 1)])


def test_rational_from_terms_adds_only_at_a_repeated_exponent(monkeypatch):
    calls = []
    add = QQ.add
    monkeypatch.setattr(QQ, "add", lambda a, b: calls.append((a, b)) or add(a, b))
    f = RF([(0, 1), (2, 3)], [(0, 2)])
    assert calls == []
    g = RF([(1, 2), (1, 3)])
    assert calls == [(2, 3)]
    monkeypatch.undo()
    assert f == RF([(0, Fraction(1, 2)), (2, Fraction(3, 2))]) and g == RF([(1, 5)])


def test_rational_function_takes_exact_polynomials_only():
    one = LaurentSeries.one(QQ)
    for bad in (S([(0, 1)], 3), S([(-1, 1)]), (1,)):
        with pytest.raises(DomainError):
            RationalFunction(QQ, bad, one)
        with pytest.raises(DomainError):
            RationalFunction(QQ, one, bad)
    with pytest.raises(BackendMismatch):
        RationalFunction(QQ, LaurentSeries.one(PrimeField(7)), one)


def test_rational_functions_match_tuple_oracle_property():
    """from_terms, add, mul, neg, inverse, pole_order_at, expand_at and the
    exact quotient of LaurentSeries.div against the tuple-polynomial
    reference."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    raw = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4)))

    def tuples(f):
        return poly_of(f.num), poly_of(f.den)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.sampled_from([QQ, PrimeField(10007)]), st.data())
    def check(ring, data):
        terms = st.lists(st.tuples(st.integers(0, 4), raw.map(ring.of)), max_size=5)
        r = ring.of(data.draw(raw))
        lin = (ring.neg(r), ring.one)
        fs = []
        for _ in range(2):
            num_terms, den_terms = data.draw(terms), data.draw(terms)
            den = poly_from_terms(ring, den_terms)
            hypothesis.assume(den)
            f = RationalFunction.from_terms(ring, num_terms, den_terms)
            want = rf_oracle(ring, poly_from_terms(ring, num_terms), den)
            assert tuples(f) == want
            # a pole of order k at r, sometimes cancelled by the numerator
            k, extra = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1))
            num, den = poly_mul(ring, want[0], lin if extra else (ring.one,)), want[1]
            for _ in range(k):
                den = poly_mul(ring, den, lin)
            f = RationalFunction.from_terms(ring, enumerate(num), enumerate(den))
            assert tuples(f) == rf_oracle(ring, num, den)
            fs.append(f)
        f, g = fs
        (fn, fd), (gn, gd) = tuples(f), tuples(g)
        cross = poly_add(ring, poly_mul(ring, fn, gd), poly_mul(ring, gn, fd))
        assert tuples(f.add(g)) == rf_oracle(ring, cross, poly_mul(ring, fd, gd))
        assert tuples(f.mul(g)) == rf_oracle(ring, poly_mul(ring, fn, gn), poly_mul(ring, fd, gd))
        assert tuples(f.neg()) == (poly_neg(ring, fn), fd)
        if fn:
            assert tuples(f.inverse()) == rf_oracle(ring, fd, fn)
        for center in (r, ring.of(data.draw(raw))):
            assert f.pole_order_at(center) == poly_strip_root(ring, fd, center)[0]
            precision = data.draw(st.integers(1, 10))
            want = rf_expand_oracle(ring, fn, fd, center, precision)
            assert want.matches(f.expand_at(center, precision))
        # the exact quotient of a product by a factor; any other quotient is
        # the expansion at 0, exact exactly when the division terminates
        a, b = LaurentSeries.make(ring, 0, fn, None), LaurentSeries.make(ring, 0, fd, None)
        q = a.mul(b).div(b)
        assert q.is_exact and poly_of(q) == fn == poly_divmod(ring, poly_mul(ring, fn, fd), fd)[0]
        if fn:
            assert rf_expand_oracle(ring, fd, fn, ring.zero, 6).matches(b.div(a, 6))

    check()


def test_rational_neg_and_inverse_equal_the_constructor_property():
    """neg and inverse keep a pair that is already in lowest terms: each
    equals the constructor's answer on the same pair."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    raw = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7)))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.sampled_from([QQ, PrimeField(10007)]), st.data())
    def check(ring, data):
        terms = st.lists(st.tuples(st.integers(0, 4), raw.map(ring.of)), max_size=5)
        num_terms, den_terms = data.draw(terms), data.draw(terms)
        hypothesis.assume(poly_from_terms(ring, den_terms))
        f = RationalFunction.from_terms(ring, num_terms, den_terms)
        assert f.neg() == RationalFunction(ring, f.num.neg(), f.den)
        if not f.is_zero:
            assert f.inverse() == RationalFunction(ring, f.den, f.num)
            assert f.inverse().inverse() == f

    check()


def test_rational_neg_and_inverse_run_no_euclid(monkeypatch):
    fs = [RF([(0, 2), (1, 3)], [(0, 1), (2, 5)]), RF([(1, Fraction(3, 4))], [(0, Fraction(2, 3)), (1, 1)])]
    fs.append(RationalFunction.from_terms(PrimeField(10007), [(0, 3), (2, 1)], [(1, 4), (3, 2)]))
    calls, divmod_ = [], series._divmod
    monkeypatch.setattr(series, "_divmod", lambda *args: calls.append(None) or divmod_(*args))
    for f in fs:
        f.neg(), f.inverse(), f.neg().inverse()
    assert calls == []


def test_degree_is_the_top_listed_exponent():
    assert S([(-2, 1), (3, 5)]).degree == 3
    assert S([(2, 1)], 6).degree == 2 and S([], 4).degree is None
    assert LaurentSeries.zero(QQ).degree is None and LaurentSeries.one(QQ).degree == 0
    f = RF([(0, 4), (1, 2)], [(0, 2)])  # a constant denominator is scaled into num
    assert f.den == LaurentSeries.one(QQ) and f.num == S([(0, 2), (1, 1)])
