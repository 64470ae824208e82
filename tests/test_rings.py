import random
from fractions import Fraction
from math import gcd

import pytest

from loopgr import QQ, ArtinianRing, LaurentSeries, PrimeField
from loopgr.errors import BackendMismatch, DomainError, NonUnitLeading
from loopgr.rings import RationalField

from conftest import PolyModel, dot_oracle, inv_oracle, mul_oracle


def test_rational_parse_and_str():
    assert QQ.parse("3/7") * 7 == 3
    assert QQ.parse("-2") == -2
    assert QQ.scalar_str(QQ.parse("4/6")) == "2/3"
    with pytest.raises(DomainError):
        QQ.parse("1.5")
    with pytest.raises(DomainError):
        QQ.parse("1/0")


def test_rational_parse_matches_fraction_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    signs = st.sampled_from(["", "+", "-"])
    zeros = st.integers(0, 3).map(lambda k: "0" * k)
    big = 10**40

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(signs, zeros, st.integers(0, big), st.none() | st.integers(1, big), st.integers(1, 12))
    def check(sign, pad, num, den, common):
        # a common factor makes the fraction reducible
        s = sign + pad + str(num * common)
        if den is not None:
            s += "/" + str(den * common)
        assert QQ.parse(s) == Fraction(s)
        assert QQ.parse(f" {s}\n") == Fraction(s)

    check()


def test_prime_field_arithmetic():
    F = PrimeField(7)
    assert F.of(10) == 3
    assert F.inv(3) == 5
    assert F.mul(3, F.inv(3)) == 1
    assert F.parse("1/2") == 4
    with pytest.raises(NonUnitLeading):
        F.inv(0)
    with pytest.raises(DomainError):
        PrimeField(6)
    with pytest.raises(DomainError):
        PrimeField(2**31 + 11)


def test_prime_field_accepts_large_primes():
    F = PrimeField(2147483647)  # 2^31 - 1
    assert F.mul(F.inv(12345), 12345) == 1


def test_artinian_units_and_inverse():
    A = ArtinianRing(QQ, 3)
    x = A.gen()
    u = A.add(A.one, x)  # 1 + x
    assert A.is_unit(u)
    assert A.eq(A.mul(u, A.inv(u)), A.one)
    assert not A.is_unit(x)
    with pytest.raises(NonUnitLeading):
        A.inv(x)
    assert A.in_maximal_ideal(x)
    assert not A.in_maximal_ideal(u)


def test_artinian_nilpotence():
    A = ArtinianRing(PrimeField(5), 2)
    x = A.gen()
    assert A.eq(A.mul(x, x), A.zero)
    assert A.residue(A.add(A.one, x)) == 1


def test_artinian_requires_field_base():
    with pytest.raises(DomainError):
        ArtinianRing(ArtinianRing(QQ, 2), 2)


def test_artinian_nilpotency_order_is_capped():
    # the order sizes every element tuple
    assert ArtinianRing(QQ, 4096).m == 4096
    with pytest.raises(DomainError):
        ArtinianRing(QQ, 4097)


def test_ring_laws_random(any_ring):
    ring = any_ring
    rng = random.Random(f"laws:{ring.name}")
    for _ in range(200):
        a, b, c = (ring.random(rng) for _ in range(3))
        assert ring.eq(ring.add(a, b), ring.add(b, a))
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))
        assert ring.eq(
            ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c))
        )
        assert ring.eq(
            ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c))
        )


def test_random_unit_is_unit(any_ring):
    rng = random.Random("units")
    for _ in range(100):
        u = any_ring.random_unit(rng)
        assert any_ring.is_unit(u)
        assert any_ring.eq(any_ring.mul(u, any_ring.inv(u)), any_ring.one)


@pytest.mark.parametrize("base", [QQ, PrimeField(10007)], ids=["Q", "F10007"])
def test_artinian_arithmetic_against_model(base):
    # k[x]/(x^m) products are polynomial products cut below x^m
    rng = random.Random(f"artinian-model:{base.name}")
    for m in range(1, 7):
        A = ArtinianRing(base, m)
        for _ in range(30):
            a, b = A.random(rng), A.random(rng)
            full = PolyModel(base, dict(enumerate(a))).mul(PolyModel(base, dict(enumerate(b))))
            assert A.eq(A.mul(a, b), tuple(full.terms.get(e, base.zero) for e in range(m)))
            u = A.random_unit(rng)
            assert A.eq(A.mul(u, A.inv(u)), A.one)


# The packed kernels take and return packed vectors; the generic kernels in
# conftest, one scalar product and sum per pair of coefficients, are their
# oracles.  A term's operands are packed from scalars, the zeros that close()
# cuts from their fronts moved into its offset, and the kernel's (lo, vec) is
# read back as `size` scalars.


def _packed(ring, values):
    return ring.close(*ring.numerators(values))


def _scalars(ring, closed, size):
    """The first `size` scalars of a kernel's (lo, vec), its cut zeros put back."""
    lo, vec = closed
    _check_canonical(ring, closed)
    cs = [ring.zero] * (lo or 0) + ring.values(*vec)
    assert len(cs) <= size
    return cs + [ring.zero] * (size - len(cs))


def _check_canonical(ring, closed):
    """A kernel's (lo, vec) is what close() makes of its own scalars: the
    one packed form, in ints of the backend's range."""
    lo, vec = closed
    assert _packed(ring, ring.values(*vec)) == (None if lo is None else 0, vec)
    d, ints = vec
    assert type(d) is int and d > 0 and all(type(c) is int for c in ints)
    base = ring.base if isinstance(ring, ArtinianRing) else ring
    assert isinstance(vec, tuple) and (base is QQ or (d == 1 and all(0 <= c < base.p for c in ints)))


# one packed form for every backend, d = 1 over GF(p)
_FORMAT_RINGS = [QQ, PrimeField(10007), PrimeField(7), ArtinianRing(QQ, 3), ArtinianRing(PrimeField(7), 2)]


@pytest.mark.parametrize("ring", _FORMAT_RINGS, ids=lambda r: r.name)
def test_zero_and_one_vectors_are_what_close_packs(ring):
    assert ring.zero_vec == _packed(ring, [])[1]
    assert ring.one_vec == _packed(ring, [ring.one])[1]
    for vec in (ring.zero_vec, ring.one_vec):
        _check_canonical(ring, (0 if vec[1] else None, vec))
    assert not hasattr(ring, "split")  # every reader unpacks (d, ints) itself


def _kernel_dot(ring, terms, size):
    packed = []
    for offset, a, b in terms:
        (la, va), (lb, vb) = _packed(ring, a), _packed(ring, b)
        if la is not None and lb is not None:
            packed.append((offset + la + lb, va, vb))
    return _scalars(ring, ring.dot_vec(packed, size), size)


def _product_size(a, b, limit):
    if not a or not b:
        return 0
    size = len(a) + len(b) - 1
    return size if limit is None or limit >= size else max(limit, 0)


def _check_mul(ring, a, b, limit):
    size = _product_size(a, b, limit)
    assert _kernel_dot(ring, [(0, a, b)], size) == mul_oracle(ring, a, b, size)


def _check_inv(ring, a, length):
    lo, vec = _packed(ring, a)
    assert lo == 0
    got = _scalars(ring, ring.inv_vec(vec, length), length)
    assert got == inv_oracle(ring, list(a), length)


def _rational(rng, bits):
    return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))


def _qq_vector(rng, length):
    bits = rng.choice((3, 20, 100))
    return [_rational(rng, bits) if rng.random() < 0.7 else QQ.zero for _ in range(length)]


def test_qq_kernels_match_generic_kernels():
    rng = random.Random("qq-kernels")
    for length in range(1, 26):
        for trial in range(4):
            a, b = _qq_vector(rng, length), _qq_vector(rng, rng.randint(1, 25))
            if trial == 1:
                a[0] = b[0] = QQ.zero
            full = len(a) + len(b) - 1
            for limit in (None, 0, -3, 1, full // 2, full - 1, full, full + 5):
                _check_mul(QQ, a, b, limit)
            a[0] = _rational(rng, 100) or QQ.one
            if trial == 2:
                a[0] = -abs(a[0])
            for n in (0, 1, length // 2, length, length + 3):
                _check_inv(QQ, a, n)
    _check_mul(QQ, [QQ.zero] * 3, [QQ.one, QQ.zero], None)
    assert QQ.dot_vec([(0, QQ.close(1, [])[1], _packed(QQ, [QQ.one])[1])], 2) == (None, (1, ()))


def test_qq_inverse_kernel_needs_a_unit():
    with pytest.raises(NonUnitLeading, match="division by zero in QQ"):
        QQ.inv_vec(QQ.close(1, [])[1], 4)


@pytest.mark.parametrize("base", [QQ, PrimeField(7)], ids=lambda r: r.name)
def test_artinian_inverse_kernel_needs_a_unit(base):
    # a leading coefficient x has a zero first int, which no kernel may cut
    ring = ArtinianRing(base, 3)
    for length in (0, 1, 4):
        with pytest.raises(NonUnitLeading):
            ring.inv_vec(_packed(ring, [ring.gen(), ring.one])[1], length)


def test_qq_kernels_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    big = 2**100
    rationals = st.builds(Fraction, st.integers(-big, big), st.integers(1, big))
    vectors = st.lists(rationals | st.just(QQ.zero), min_size=1, max_size=25)
    limits = st.none() | st.integers(-3, 55)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(vectors, vectors, limits, st.integers(0, 30))
    def check(a, b, limit, length):
        _check_mul(QQ, a, b, limit)
        if a[0] == 0:
            with pytest.raises(NonUnitLeading):
                QQ.inv_vec(QQ.numerators(a), length)  # a's ints, the zero lead kept
        else:
            _check_inv(QQ, a, length)

    check()


def _swollen(p, q, window, sign=1):
    """w = P * (1/Q) on its first `window` coefficients, P and Q integer
    polynomials: a unit whose packed lead shares a large factor with the
    common denominator, as a Smith-form pivot's does.  1/w = Q * (1/P) on
    the window."""
    p, q = [Fraction(c) for c in p], [Fraction(sign * c) for c in q]
    return mul_oracle(QQ, p, inv_oracle(QQ, q, window), window)


def _check_swollen_inverse(p, q, window, sign):
    w = _swollen(p, q, window, sign)
    for length in (0, 1, window // 2, window):
        _check_inv(QQ, w, length)
        one_over_p = inv_oracle(QQ, [Fraction(c) for c in p], length)
        want = mul_oracle(QQ, [Fraction(sign * c) for c in q], one_over_p, length)
        assert _scalars(QQ, QQ.inv_vec(_packed(QQ, w)[1], length), length) == want


def test_qq_inverse_of_a_swollen_lead():
    p, q = [2, -1, 3], [3, 2, 0, -1]
    for sign in (1, -1):
        # the lead of w is ±2/3 over 3^12: gcd(N[0], d) = 3^11 takes the reduced recurrence
        d, ints = _packed(QQ, _swollen(p, q, 12, sign))[1]
        assert (d, ints[0]) == (3**12, sign * 2 * 3**11)
        _check_swollen_inverse(p, q, 12, sign)
    # a lead prime to the denominator keeps the unreduced recurrence
    for cs in ([3, -2, 5], [-3, -2, 5], [Fraction(-3, 7), Fraction(2, 7)]):
        d, ints = _packed(QQ, cs)[1]
        assert gcd(ints[0], d) == 1
        for length in (0, 1, 2, 16, 64):
            _check_inv(QQ, [Fraction(c) for c in cs], length)


def test_qq_inverse_of_a_swollen_lead_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    small = st.integers(-9, 9)
    polys = st.builds(lambda a0, rest: [a0] + rest, small.filter(bool), st.lists(small, max_size=5))
    windows, signs = st.integers(2, 24), st.sampled_from((1, -1))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(polys, polys.filter(lambda q: abs(q[0]) > 1), windows, signs)
    def check(p, q, window, sign):
        _check_swollen_inverse(p, q, window, sign)

    check()


_ART_BASES = [QQ, PrimeField(10007), PrimeField(2)]


def _base_value(base, rng):
    return _rational(rng, rng.choice((3, 40))) if base is QQ else base.random(rng)


def _art_entry(ring, rng, kind):
    """A k[x]/(x^m) value: zero, a constant lift, nilpotent only, or dense."""
    base = ring.base
    if kind == "zero":
        return ring.zero
    if kind == "constant":
        return ring.from_base(_base_value(base, rng))
    lead = base.zero if kind == "nilpotent" else _base_value(base, rng)
    return (lead,) + tuple(_base_value(base, rng) for _ in range(ring.m - 1))


def _art_vector(ring, rng, length):
    kinds = ("zero", "constant", "nilpotent", "dense")
    kind = rng.choice(kinds[1:] + ("mixed",))
    return [
        _art_entry(ring, rng, rng.choice(kinds) if kind == "mixed" else kind) for _ in range(length)
    ]


@pytest.mark.parametrize("base", _ART_BASES, ids=lambda r: r.name)
def test_artinian_kernel_matches_generic_kernel(base):
    rng = random.Random(f"artinian-kernel:{base.name}")
    for m in (1, 2, 3, 4, 5, 6, 16):
        ring = ArtinianRing(base, m)
        for length in range(1, 13):
            a, b = _art_vector(ring, rng, length), _art_vector(ring, rng, rng.randint(1, 12))
            if length % 2:  # zero tuples at both ends and inside
                a[0] = a[-1] = b[len(b) // 2] = ring.zero
            full = len(a) + len(b) - 1
            for limit in (None, 0, -3, 1, full // 2, full - 1, full, full + 5):
                _check_mul(ring, a, b, limit)
            a[0] = ring.random_unit(rng)
            for n in (0, 1, length, length + 2):
                _check_inv(ring, a, n)
        _check_mul(ring, [ring.zero] * 3, [ring.one, ring.zero], None)
        _check_mul(ring, [ring.gen()] * 2, [ring.gen()] * 3, None)


def test_artinian_kernel_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rings = st.sampled_from(_ART_BASES).flatmap(
        lambda base: st.sampled_from((1, 2, 3, 4, 5, 6, 16)).map(lambda m: ArtinianRing(base, m))
    )
    big = 2**64

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(rings, st.data())
    def check(ring, data):
        if ring.base is QQ:
            raw = st.builds(Fraction, st.integers(-big, big), st.integers(1, big)) | st.just(0)
        else:
            raw = st.integers(-big, big) | st.just(0)
        entry = st.lists(raw, min_size=ring.m, max_size=ring.m).map(ring.of)
        vectors = st.lists(entry | st.just(ring.zero), min_size=1, max_size=8)
        a, b = data.draw(vectors), data.draw(vectors)
        _check_mul(ring, a, b, data.draw(st.none() | st.integers(-3, 30)))
        if ring.is_unit(a[0]):
            _check_inv(ring, a, data.draw(st.integers(0, 12)))

    check()


def test_artinian_scalar_product_is_the_series_product_property():
    # ArtinianRing.mul convolves the base ints of two scalars directly; its
    # oracle is coefficient 0 of the product of the constant series, the
    # series kernel, value and type of every base coefficient
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    kinds = st.sampled_from(("zero", "constant", "nilpotent", "dense", "unit"))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(_ART_BASES), st.integers(1, 6), st.integers(0, 2**32), kinds, kinds)
    def check(base, m, seed, kind_a, kind_b):
        rng, ring = random.Random(seed), ArtinianRing(base, m)
        a, b = [ring.random_unit(rng) if k == "unit" else _art_entry(ring, rng, k) for k in (kind_a, kind_b)]
        got = ring.mul(a, b)
        want = LaurentSeries.constant(ring, a).mul(LaurentSeries.constant(ring, b)).coefficient(0)
        assert got == want and [type(c) for c in got] == [type(c) for c in want]

    check()


def test_artinian_dot_with_an_operand_one_property():
    # a term with an operand 1 is added as the other operand, in one pass: the
    # shapes of add, sub and a column operation, with 1 on either side
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rings = st.sampled_from(_ART_BASES).flatmap(lambda base: st.integers(1, 6).map(lambda m: ArtinianRing(base, m)))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(rings, st.integers(0, 2**32), st.integers(0, 4), st.integers(0, 14))
    def check(ring, seed, o, size):
        rng, one = random.Random(seed), [ring.one]
        a, b, x = [_art_vector(ring, rng, rng.randint(1, 6)) for _ in range(3)]
        shapes = [
            [(0, a, one), (o, b, one)],  # add
            [(0, a, one), (o, [ring.neg(c) for c in b], one)],  # sub
            [(o, b, one), (0, a, x)],  # column operation
            [(o, one, a), (0, one, one)],
        ]
        for terms in shapes:
            _check_dot(ring, terms, size)

    check()


@pytest.mark.parametrize("ring", [ArtinianRing(QQ, 3), ArtinianRing(PrimeField(7), 2)], ids=lambda r: r.name)
def test_artinian_series_product_runs_no_scalar_product(monkeypatch, ring):
    rng = random.Random(f"no-scalar-product:{ring.name}")
    s_terms = [(e, ring.random(rng)) for e in range(-2, 4)]
    t_terms = [(e, ring.random_unit(rng)) for e in range(5)]
    s, t = LaurentSeries.from_terms(ring, s_terms), LaurentSeries.from_terms(ring, t_terms, 7)
    expected = PolyModel(ring, dict(s_terms)).mul(PolyModel(ring, dict(t_terms), 7))

    def forbidden(*args):
        raise AssertionError("a series product ran a scalar k[x]/(x^m) operation")

    monkeypatch.setattr(ArtinianRing, "mul", forbidden)
    monkeypatch.setattr(ArtinianRing, "add", forbidden)
    assert expected.matches(s.mul(t))
    assert expected.matches(t.mul(s))


# dot_vec, the sum of shifted products, is one integer pass over one
# denominator: QQ and GF(p) share its body, k[x]/(x^m) runs it flattened.

_DOT_RINGS = [QQ, PrimeField(10007)] + [
    ArtinianRing(base, m) for base in (QQ, PrimeField(7)) for m in range(1, 5)
]


def _dot_vector(ring, rng, length):
    if isinstance(ring, ArtinianRing):
        return _art_vector(ring, rng, length)
    if ring is QQ:
        return _qq_vector(rng, length)
    return [ring.random(rng) if rng.random() < 0.7 else ring.zero for _ in range(length)]


def _check_dot(ring, terms, size):
    got = _kernel_dot(ring, terms, size)
    assert got == dot_oracle(ring, terms, size)
    if len(terms) == 1 and terms[0][0] == 0:
        _, a, b = terms[0]
        assert got == mul_oracle(ring, a, b, size)


@pytest.mark.parametrize("ring", _DOT_RINGS, ids=lambda r: r.name)
def test_dot_kernel_matches_generic_kernel(ring):
    rng = random.Random(f"dot-kernel:{ring.name}")
    zero_vector = [ring.zero] * 3
    for pairs in range(1, 7):
        for _ in range(12):
            terms = []
            for _ in range(pairs):
                a = _dot_vector(ring, rng, rng.randint(1, 8))
                b = _dot_vector(ring, rng, rng.randint(1, 8))
                if rng.random() < 0.2:  # an operand with no nonzero coefficient
                    a = rng.choice(([], zero_vector))
                terms.append((rng.randint(0, 6), a, b))
            full = max(o + len(a) + len(b) - 1 for o, a, b in terms)
            # offsets at, past and before the cut, and no output at all
            for size in (0, 1, terms[0][0], terms[0][0] + 1, full // 2, full, full + 3):
                _check_dot(ring, terms, size)
    # a sum that cancels to zero: a*b + (-a)*b
    a, b = _dot_vector(ring, rng, 5), _dot_vector(ring, rng, 4)
    terms = [(1, a, b), (1, [ring.neg(x) for x in a], b)]
    _check_dot(ring, terms, 9)
    assert _kernel_dot(ring, terms, 9) == [ring.zero] * 9
    assert ring.dot_vec([], 4) == _packed(ring, [])


def test_dot_kernel_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    big = 2**64

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(_DOT_RINGS), st.data())
    def check(ring, data):
        base = ring.base if isinstance(ring, ArtinianRing) else ring
        if base is QQ:
            raw = st.builds(Fraction, st.integers(-big, big), st.integers(1, big)) | st.just(0)
        else:
            raw = st.integers(-big, big) | st.just(0)
        if isinstance(ring, ArtinianRing):
            entry = st.lists(raw, min_size=ring.m, max_size=ring.m).map(ring.of)
        else:
            entry = raw.map(ring.of)
        vectors = st.lists(entry, max_size=7)
        terms = data.draw(st.lists(st.tuples(st.integers(0, 8), vectors, vectors), min_size=1, max_size=6))
        _check_dot(ring, terms, data.draw(st.integers(0, 20)))

    check()


@pytest.mark.parametrize("ring", [PrimeField(10007), ArtinianRing(PrimeField(7), 3)], ids=lambda r: r.name)
def test_prime_field_kernels_reduce_to_canonical_ints(ring):
    # sums of products past p, and a reciprocal over the denominator a0^size
    big = [ring.of(-1)] * 40
    _check_dot(ring, [(0, big, big), (3, big, big)], 60)
    _check_inv(ring, [ring.of(3)] + big, 30)


# ---------------------------------------------------------------------------
# equality: canonical values compare with ==, backends by their key


@pytest.mark.parametrize(
    "ring",
    [QQ, PrimeField(10007), ArtinianRing(QQ, 3), ArtinianRing(PrimeField(10007), 2)],
    ids=lambda r: r.name,
)
def test_equality_is_value_equality_property(ring):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    raw = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))
    if isinstance(ring, ArtinianRing):
        scalars = st.lists(raw, min_size=ring.m, max_size=ring.m).map(ring.of)
    else:
        scalars = raw.map(ring.of)
    units = scalars.filter(ring.is_unit)
    series = st.lists(st.tuples(st.integers(-3, 3), scalars), max_size=5).map(
        lambda terms: LaurentSeries.from_terms(ring, terms)
    )

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(scalars, scalars, units, series, series)
    def check(a, b, u, s, t):
        c = ring.sub(ring.add(a, b), b)
        assert c == a and hash(c) == hash(a)
        assert ring.is_zero(a) == (a == ring.zero)
        assert ring.is_unit(a) == (not ring.residue_field.is_zero(ring.residue(a)))
        assert ring.mul(ring.mul(a, u), ring.inv(u)) == a
        r = s.add(t).sub(t)
        assert r == s and hash(r) == hash(s)

    check()


def _backends():
    return [
        RationalField(),
        PrimeField(5),
        PrimeField(7),
        ArtinianRing(QQ, 2),
        ArtinianRing(QQ, 3),
        ArtinianRing(PrimeField(5), 2),
    ]


def test_backend_identity_is_key_equality():
    shared = [QQ] + _backends()[1:]
    rings = list(enumerate(shared)) + list(enumerate(_backends()))
    for i, a in rings:
        for j, b in rings:
            if i == j:
                assert a == b and a.key == b.key and hash(a) == hash(b)
                assert len({a: 0, b: 1}) == 1
                a.require_same(b)
            else:
                assert a != b and a.key != b.key
                with pytest.raises(BackendMismatch):
                    a.require_same(b)


def test_artinian_tuples_are_canonical_on_entry():
    A = ArtinianRing(PrimeField(7), 2)
    z = A.of((7, 0))
    assert z == A.zero and A.is_zero(z) and not A.is_unit(z)
    with pytest.raises(NonUnitLeading):
        A.inv(z)
    assert A.of((8, 1)) == A.of([1, 1]) == (1, 1)
