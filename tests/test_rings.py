import random
from fractions import Fraction

import pytest

from loopgr import QQ, ArtinianRing, LaurentSeries, PrimeField
from loopgr.errors import BackendMismatch, DomainError, NonUnitLeading
from loopgr.rings import RationalField, Ring

from conftest import PolyModel


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


# QQ overrides the two series kernels with integer-numerator versions; the
# generic Ring kernels are their oracle.


def _rational(rng, bits):
    return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))


def _qq_vector(rng, length):
    bits = rng.choice((3, 20, 100))
    return [_rational(rng, bits) if rng.random() < 0.7 else QQ.zero for _ in range(length)]


def _check_qq_mul(a, b, limit):
    got = QQ.mul_vec(a, b, limit)
    assert got == Ring.mul_vec(QQ, a, b, limit)
    assert all(type(c) is Fraction for c in got)


def _check_qq_inv(a, length):
    got = QQ.inv_vec(a, length)
    assert got == Ring.inv_vec(QQ, a, length)
    assert all(type(c) is Fraction for c in got)


def test_qq_kernels_match_generic_kernels():
    rng = random.Random("qq-kernels")
    for length in range(1, 26):
        for trial in range(4):
            a, b = _qq_vector(rng, length), _qq_vector(rng, rng.randint(1, 25))
            if trial == 1:
                a[0] = b[0] = QQ.zero
            full = len(a) + len(b) - 1
            for limit in (None, 0, -3, 1, full // 2, full - 1, full, full + 5):
                _check_qq_mul(a, b, limit)
            a[0] = _rational(rng, 100) or QQ.one
            if trial == 2:
                a[0] = -abs(a[0])
            for n in (0, 1, length // 2, length, length + 3):
                _check_qq_inv(a, n)
    _check_qq_mul([QQ.zero] * 3, [QQ.one, QQ.zero], None)
    assert QQ.mul_vec([], [QQ.one]) == QQ.mul_vec([QQ.one], []) == []


def test_qq_inverse_kernel_needs_a_unit():
    with pytest.raises(NonUnitLeading, match="division by zero in QQ"):
        QQ.inv_vec([QQ.zero, QQ.one], 4)


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
        _check_qq_mul(a, b, limit)
        if a[0] == 0:
            with pytest.raises(NonUnitLeading):
                QQ.inv_vec(a, length)
        else:
            _check_qq_inv(a, length)

    check()


# ArtinianRing overrides mul_vec with one integer convolution in t and x; the
# generic Ring kernel, one ArtinianRing.mul and .add per pair of coefficients,
# is its oracle.

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


def _is_canonical(base, c):
    if base is QQ:
        return type(c) is Fraction
    return type(c) is int and 0 <= c < base.p


def _check_art_mul(ring, a, b, limit):
    got = ring.mul_vec(a, b, limit)
    assert got == Ring.mul_vec(ring, a, b, limit)
    for c in got:
        assert type(c) is tuple and len(c) == ring.m
        assert all(_is_canonical(ring.base, x) for x in c)


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
                _check_art_mul(ring, a, b, limit)
        _check_art_mul(ring, [ring.zero] * 3, [ring.one, ring.zero], None)
        _check_art_mul(ring, [ring.gen()] * 2, [ring.gen()] * 3, None)
        assert ring.mul_vec([], [ring.one]) == ring.mul_vec([ring.one], []) == []


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
        _check_art_mul(ring, a, b, data.draw(st.none() | st.integers(-3, 30)))

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
