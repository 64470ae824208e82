"""Shared generators and independent oracles for the test suite."""

import random

import pytest

from loopgr import QQ, ArtinianRing, LaurentSeries, LoopMatrix, PrimeField


# ---------------------------------------------------------------------------
# an exact-polynomial model of windowed series, used as the precision oracle:
# a value is (dict exponent -> coefficient, window end or None), computed with
# no truncation beyond the provable window rule


class PolyModel:
    def __init__(self, ring, terms, end=None):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not ring.is_zero(c)}
        self.end = end

    def val_lower(self):
        if self.terms:
            return min(self.terms)
        return self.end  # None means exactly zero

    @staticmethod
    def _min_end(*ends):
        finite = [e for e in ends if e is not None]
        return min(finite) if finite else None

    def add(self, other):
        end = self._min_end(self.end, other.end)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = self.ring.add(out.get(e, self.ring.zero), c)
        if end is not None:
            out = {e: c for e, c in out.items() if e < end}
        return PolyModel(self.ring, out, end)

    def mul(self, other):
        if not self.terms and self.end is None:
            return PolyModel(self.ring, {}, None)
        if not other.terms and other.end is None:
            return PolyModel(self.ring, {}, None)
        va, vb = self.val_lower(), other.val_lower()
        end = self._min_end(
            None if self.end is None else self.end + vb,
            None if other.end is None else other.end + va,
        )
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = self.ring.add(out.get(e, self.ring.zero), self.ring.mul(c1, c2))
        if end is not None:
            out = {e: c for e, c in out.items() if e < end}
        return PolyModel(self.ring, out, end)

    def matches(self, s: LaurentSeries) -> bool:
        """Window end equal and every coefficient inside it equal."""
        if s.known_end != self.end:
            return False
        for e, c in self.terms.items():
            if not self.ring.eq(s.coefficient(e), c):
                return False
        support = set(self.terms)
        for i, c in enumerate(s.coeffs):
            e = s.shift + i
            if not self.ring.is_zero(c) and e not in support:
                return False
        return True


def model_of(s: LaurentSeries) -> PolyModel:
    terms = {s.shift + i: c for i, c in enumerate(s.coeffs)}
    return PolyModel(s.ring, terms, s.known_end)


# ---------------------------------------------------------------------------
# the generic series kernels, one scalar product and sum per pair of
# coefficients: the oracles of the packed integer kernels.  Over k[x]/(x^m)
# they multiply and invert with base-field operations only, so they run no
# packed kernel themselves.


def _scalar_ops(ring):
    """(mul, inv) of ring from field scalar operations only."""
    if not isinstance(ring, ArtinianRing):
        return ring.mul, ring.inv
    base, m = ring.base, ring.m

    def mul(a, b):
        out = [base.zero] * m
        for i, x in enumerate(a):
            for j in range(m - i):
                out[i + j] = base.add(out[i + j], base.mul(x, b[j]))
        return tuple(out)

    return mul, lambda a: tuple(inv_oracle(base, a, m))


def mul_oracle(ring, a, b, size):
    """The first `size` coefficients of the product of scalar sequences."""
    mul, _ = _scalar_ops(ring)
    out = [ring.zero] * size
    for i, x in enumerate(a[:size]):
        for j, y in enumerate(b[: size - i], i):
            out[j] = ring.add(out[j], mul(x, y))
    return out


def dot_oracle(ring, terms, size):
    """The first `size` coefficients of the sum of t^offset * a * b over the
    (offset, a, b) terms of scalar sequences."""
    out = [ring.zero] * size
    for offset, a, b in terms:
        for j, c in enumerate(mul_oracle(ring, a, b, max(size - offset, 0)), offset):
            out[j] = ring.add(out[j], c)
    return out


def inv_oracle(ring, a, length):
    """The first `length` coefficients of 1/a; a[0] must be a unit."""
    mul, inv = _scalar_ops(ring)
    c0 = inv(a[0])
    out = [c0]
    for k in range(1, length):
        acc = ring.zero
        for i in range(1, min(k, len(a) - 1) + 1):
            acc = ring.add(acc, mul(a[i], out[k - i]))
        out.append(ring.neg(mul(c0, acc)))
    return out[:length]


# ---------------------------------------------------------------------------
# polynomials as tuples of scalars, index = exponent, last coefficient
# nonzero: the reference for RationalFunction and for the exact quotient of
# LaurentSeries.div, with scalar operations only.


def poly_trim(ring, cs):
    cs = list(cs)
    while cs and ring.is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def poly_add(ring, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ring.add(out[i], c)
    return poly_trim(ring, out)


def poly_neg(ring, a):
    return tuple(ring.neg(c) for c in a)


def poly_mul(ring, a, b):
    if not a or not b:
        return ()
    return poly_trim(ring, mul_oracle(ring, a, b, len(a) + len(b) - 1))


def poly_scale(ring, c, a):
    return poly_trim(ring, [ring.mul(c, x) for x in a])


def poly_divmod(ring, a, b):
    """Quotient and remainder of a by b; b's leading coefficient must be a unit."""
    lead_inv = ring.inv(b[-1])
    rem = list(a)
    if len(a) < len(b):
        return (), poly_trim(ring, rem)
    q = [ring.zero] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = ring.mul(rem[k + len(b) - 1], lead_inv)
        q[k] = c
        for j, bj in enumerate(b):
            rem[k + j] = ring.sub(rem[k + j], ring.mul(c, bj))
    return poly_trim(ring, q), poly_trim(ring, rem)


def poly_gcd(ring, a, b):
    """Monic gcd over a field backend."""
    while b:
        a, b = b, poly_divmod(ring, a, b)[1]
    return poly_scale(ring, ring.inv(a[-1]), a) if a else a


def poly_strip_root(ring, p, r):
    """(k, q) with p = (t - r)^k * q and q(r) != 0; p must be nonzero."""
    lin = poly_trim(ring, (ring.neg(r), ring.one))
    k = 0
    while True:
        q, rem = poly_divmod(ring, p, lin)
        if rem:
            return k, p
        p, k = q, k + 1


def poly_shift_var(ring, p, r):
    """The polynomial p(t + r), by Horner recursion."""
    res = ()
    lin = poly_trim(ring, (r, ring.one))
    for c in reversed(p):
        res = poly_add(ring, poly_mul(ring, res, lin), poly_trim(ring, (c,)))
    return res


def poly_of(s: LaurentSeries) -> tuple:
    """The tuple of an exact series of valuation >= 0."""
    assert s.is_exact and s.shift >= 0
    return poly_trim(s.ring, (s.ring.zero,) * s.shift + s.coeffs)


def poly_from_terms(ring, terms):
    """The tuple of a sum of (exponent >= 0, coefficient) terms."""
    out = ()
    for e, c in terms:
        out = poly_add(ring, out, (ring.zero,) * e + (ring.of(c),))
    return out


def rf_oracle(ring, num, den):
    """The canonical (num, den) tuples of num/den: coprime, den monic."""
    g = poly_gcd(ring, num, den)
    num, den = poly_divmod(ring, num, g)[0], poly_divmod(ring, den, g)[0]
    lead_inv = ring.inv(den[-1])
    return poly_scale(ring, lead_inv, num), poly_scale(ring, lead_inv, den)


def rf_expand_oracle(ring, num, den, r, precision):
    """PolyModel of num(t + r)/den(t + r) at 0 with LaurentSeries.div's
    window: exact when the Laurent polynomial division terminates, else
    `precision` coefficients from the valuation."""
    nu, de = poly_shift_var(ring, num, r), poly_shift_var(ring, den, r)
    if not nu:
        return PolyModel(ring, {}, None)
    vn = next(i for i, c in enumerate(nu) if not ring.is_zero(c))
    vd = next(i for i, c in enumerate(de) if not ring.is_zero(c))
    q, rem = poly_divmod(ring, nu[vn:], de[vd:])
    if not rem:
        return PolyModel(ring, dict(enumerate(q, vn - vd)), None)
    cs = mul_oracle(ring, nu[vn:], inv_oracle(ring, de[vd:], precision), precision)
    return PolyModel(ring, dict(enumerate(cs, vn - vd)), vn - vd + precision)


# ---------------------------------------------------------------------------
# random exact material


def rand_exact_series(ring, rng, lo=-2, hi=3, density=0.7, unit=False):
    """A random exact Laurent polynomial; with unit=True the lowest exponent
    carries a unit coefficient."""
    terms = []
    for e in range(lo, hi + 1):
        if rng.random() < density:
            terms.append((e, ring.random(rng)))
    if unit:
        terms = [(lo, ring.random_unit(rng))] + [t for t in terms if t[0] != lo]
    s = LaurentSeries.from_terms(ring, terms)
    if unit and not s.coeffs:
        return LaurentSeries.one(ring)
    return s


def det_cancelling_sl2_loop():
    """E12(-t^-2 - 2t^2) E21(2t^-2 + 4t^-1) E12(-4t^-2 + 1) E21(4t^-2)
    E12(3t^-2 - 2/3 t^2) over QQ.  Lifted to QQ[x]/(x^2) from its factors at
    the default precision, the truncated parameters cancel the whole known
    window of the minor expansion of the determinant, which is exactly 1;
    at precision 32 they do not."""
    from loopgr import elementary_loop

    loop = None
    for (i, j), terms in [
        ((0, 1), [(-2, -1), (2, -2)]),
        ((1, 0), [(-2, 2), (-1, 4)]),
        ((0, 1), [(-2, -4), (0, 1)]),
        ((1, 0), [(-2, 4)]),
        ((0, 1), [(-2, 3), (2, QQ.parse("-2/3"))]),
    ]:
        e = elementary_loop(QQ, 2, i, j, LaurentSeries.from_terms(QQ, terms))
        loop = e if loop is None else loop.mat_mul(e)
    return loop


def rand_truncated_series(ring, rng, lo=-2, hi=3, window=8):
    s = rand_exact_series(ring, rng, lo, hi)
    return s.truncated(rng.randint(lo + 1, lo + window))


def rand_unit_series(ring, rng, lo=-2, hi=2):
    return rand_exact_series(ring, rng, lo, hi, unit=True)


# ---------------------------------------------------------------------------
# independent stratum oracle: valuations of gcds of k x k minors over k[[t]].
# Entries must be exact so minor valuations are exact.


def _minor_dets(rows, k):
    from itertools import combinations

    n = len(rows)
    ring = rows[0][0].ring
    for ri in combinations(range(n), k):
        for ci in combinations(range(n), k):
            yield _exact_det([[rows[i][j] for j in ci] for i in ri])


def _exact_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j].mul(_exact_det(minor))
        if j % 2 == 1:
            term = term.neg()
        acc = term if acc is None else acc.add(term)
    return acc


def minors_stratum_oracle(loop: LoopMatrix):
    """Dominant cocharacter via minimal valuations of k x k minors: the
    partial sums of the ascending divisor exponents."""
    for r in loop.rows:
        for e in r:
            assert e.is_exact, "minors oracle needs exact entries"
    n = loop.n
    deltas = []
    for k in range(1, n + 1):
        vals = [d.valuation for d in _minor_dets(loop.rows, k) if d.coeffs]
        assert vals, "singular matrix handed to the minors oracle"
        deltas.append(min(vals))
    asc = [deltas[0]] + [deltas[k] - deltas[k - 1] for k in range(1, n)]
    return tuple(reversed(asc))


# ---------------------------------------------------------------------------
# global re-trivializations: 2x2 rational-function matrices invertible away
# from the marked points (including at infinity)


def rf_matmul(a, b):
    return [
        [a[i][0].mul(b[0][j]).add(a[i][1].mul(b[1][j])) for j in range(2)]
        for i in range(2)
    ]


def rf_identity(ring):
    from loopgr import RationalFunction

    one = RationalFunction.constant(ring, 1)
    zero = RationalFunction.constant(ring, 0)
    return [[one, zero], [zero, one]]


def global_rational_loop(ring, points, rng):
    """A product of shears with poles only at the points and constant
    determinant-one diagonals; regular and invertible at infinity."""
    from loopgr import RationalFunction

    m = rf_identity(ring)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind < 2 and points:
            r = rng.choice(points)
            f = RationalFunction.constant(ring, ring.random(rng))
            lin = RationalFunction.from_terms(ring, [(0, ring.neg(r)), (1, ring.one)])
            for _ in range(rng.randint(1, 2)):
                f = f.mul(lin.inverse())
            g = rf_identity(ring)
            g[0][1] = f
            if kind == 1:
                g = [[g[0][0], g[1][0]], [g[0][1], g[1][1]]]  # transpose: shear below
            m = rf_matmul(m, g)
        else:
            c = ring.random_unit(rng)
            g = rf_identity(ring)
            g[0][0] = RationalFunction.constant(ring, c)
            g[1][1] = RationalFunction.constant(ring, ring.inv(c))
            m = rf_matmul(m, g)
    return m


def expand_rational_loop(m, r, precision=24):
    return LoopMatrix([[f.expand_at(r, precision) for f in row] for row in m])


def retrivialize(datum, m, precision=24):
    from loopgr import ModificationDatum

    loops = tuple(
        expand_rational_loop(m, p.r, precision).mat_mul(lp)
        for p, lp in zip(datum.points, datum.loops)
    )
    return ModificationDatum(
        datum.ring, datum.n, datum.points, loops, datum.infinity_loop
    )


# ---------------------------------------------------------------------------


@pytest.fixture
def rng():
    return random.Random("loopgr-tests")


@pytest.fixture(params=["Q", "F7", "A3"])
def any_ring(request):
    from loopgr import ArtinianRing

    if request.param == "Q":
        return QQ
    if request.param == "F7":
        return PrimeField(7)
    return ArtinianRing(QQ, 3)


@pytest.fixture(params=["Q", "F7"])
def field_ring(request):
    if request.param == "Q":
        return QQ
    return PrimeField(7)
