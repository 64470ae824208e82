"""Full-update eliminations kept as reference oracles.

`smith_normal_form` and `LoopMatrix._gauss_inverse` update only the entries
of the working matrix that are read again, and `smith_normal_form` writes its
transforms U and V from the pivot cross of each step.  The copies below are
the eliminations as first written: they update every entry, Gauss-Jordan
carries the inverse as a second matrix in lockstep, and the Smith form mirrors
every row and column operation on U and V.  On a seeded corpus every
value (each entry's group, shift, coefficients and window) and every error
(class, message, suggested precision) must agree exactly.

`smith_normal_form` reports what its pivots certify and forms no product
U * t^lam * V.  The residual pass it once ran is kept below as the reference:
whenever the library answers on a truncation of a loop of known stratum, lam
must be that stratum, U and V positive, and every entry of U * t^lam * V - a
zero on its window.  `stratum` may answer from windows it cut shorter:
whenever it answers, lam must be that stratum, and whenever
`smith_normal_form` answers at the precision given, `stratum` must too.

`h0` and `splitting_type` count sections for all twists from one echelon
pass.  The oracle below is the per-twist count it replaced: every twist
rebuilds its rows and ranks them alone, and `splitting_type` reads h0 at
each m = -B-1..B.  Values, error classes and suggested precisions must
agree; a message may differ only in the exponent it names, since the pass
builds the rows of the top twist first.  The row builder it first used is
kept too: it multiplies each loop entry by a list of basis series, one
diagonal sum per row entry, where `_condition_rows` forms one
`LaurentSeries.mul` product per entry and steps it; their rows must agree
scalar for scalar, and their errors as the per-twist ones do.  Both expand
1/prod_j (t - r_j)^{N_j} at each place as the product of its linear factors
(`_reciprocal` below), where the library translates and reverses one
denominator.

`factor_elementary` applies the premultiplication by E21(1) as one row
operation and goes straight to the three-factor identity.  The oracle below is
the recursion it replaced: it forms E21(1) m as a loop product and factors that
again, up to depth 2.  Values, error classes, messages and suggested
precisions must agree exactly.

The oracle pivot takes every entry known to be nonzero.  Over k[x]/(x^m) the
library pivot also needs a unit leading coefficient, so there the library
may return an inverse where the oracle raised NonUnitLeading; that inverse
is checked on both sides against the identity.  Where the library instead
finds no pivot left, the determinant must not be a unit.
"""

import collections
import itertools
import random
import re

import pytest

from loopgr import (
    QQ,
    ArtinianRing,
    LaurentSeries,
    LoopMatrix,
    ModificationDatum,
    PrimeField,
    SplittingType,
    h0,
    random_loop,
    smith_normal_form,
    splitting_type,
    stratum,
)
from loopgr.cartan import CartanFactorization, Cocharacter, _certify
from loopgr.factorization import (
    ElementaryFactor,
    Factorization,
    factor_elementary,
)
from loopgr.errors import (
    DomainError,
    Error,
    InconsistentH0,
    InsufficientPrecision,
    SingularToPrecision,
)
from loopgr.loops import _least_valuation, elementary_loop
from loopgr.p1bundles import _condition_rows, _pole_bounds
from loopgr.series import DEFAULT_PRECISION

# -- the oracles ---------------------------------------------------------------


def full_pivot(m, s, precision, rows_only=False):
    cols = [s] if rows_only else range(s, len(m))
    cells = [(i, j) for i in range(s, len(m)) for j in cols]
    best, end = _least_valuation([m[i][j] for i, j in cells])
    if best is None:
        raise SingularToPrecision(
            "no pivot: the remaining block vanishes on its known windows"
        )
    if end is not None and end <= best[0]:
        raise InsufficientPrecision(
            "an entry that is zero to its window could still beat the pivot",
            precision,
        )
    return cells[best[1]]


def full_gauss_inverse(a, precision):
    n = a.n
    m = [list(r) for r in a.rows]
    aug = [list(r) for r in LoopMatrix.identity(a.ring, n).rows]
    for s in range(n):
        i0, _ = full_pivot(m, s, precision, rows_only=True)
        if i0 != s:
            m[s], m[i0] = m[i0], m[s]
            aug[s], aug[i0] = aug[i0], aug[s]
        inv_p = m[s][s].invert(precision)
        m[s] = [e.mul(inv_p) for e in m[s]]
        aug[s] = [e.mul(inv_p) for e in aug[s]]
        for i in range(n):
            if i == s or m[i][s].is_exact_zero:
                continue
            q = m[i][s]
            m[i] = [x.sub(q.mul(y)) for x, y in zip(m[i], m[s])]
            aug[i] = [x.sub(q.mul(y)) for x, y in zip(aug[i], aug[s])]
    return LoopMatrix(aug, a.group)


def full_smith_normal_form(a, precision):
    n = a.n
    m = [list(r) for r in a.rows]
    u = [list(r) for r in LoopMatrix.identity(a.ring, n).rows]
    v = [list(r) for r in LoopMatrix.identity(a.ring, n).rows]
    divisors = []
    for s in range(n):
        i0, j0 = full_pivot(m, s, precision)
        if i0 != s:
            m[s], m[i0] = m[i0], m[s]
            for r in u:
                r[s], r[i0] = r[i0], r[s]
        if j0 != s:
            for r in m:
                r[s], r[j0] = r[j0], r[s]
            v[s], v[j0] = v[j0], v[s]
        pivot = m[s][s]
        val = pivot.shift
        w_inv = pivot.shifted(-val).invert(precision)
        m[s] = [e.mul(w_inv) for e in m[s]]
        for r in u:
            r[s] = r[s].mul(pivot.shifted(-val))
        for i in range(s + 1, n):
            e = m[i][s]
            if e.is_exact_zero:
                continue
            q = e.shifted(-val)
            m[i] = [x.sub(q.mul(y)) for x, y in zip(m[i], m[s])]
            for r in u:
                r[s] = r[s].add(q.mul(r[i]))
        for j in range(s + 1, n):
            e = m[s][j]
            if e.is_exact_zero:
                continue
            q = e.shifted(-val)
            for row in m:
                row[j] = row[j].sub(row[s].mul(q))
            v[s] = [x.add(q.mul(y)) for x, y in zip(v[s], v[j])]
        divisors.append(val)
    fact = CartanFactorization(
        LoopMatrix([r[::-1] for r in u]),
        Cocharacter(tuple(reversed(divisors))),
        LoopMatrix(v[::-1]),
    )
    _certify(fact, precision)
    return fact


def reconstruction_residuals(a, fact):
    """Each entry of left * t^lam * right - a, as one sum of n + 1 products."""
    lam, minus_one = fact.cocharacter.entries, LaurentSeries.one(a.ring).neg()
    cols = list(zip(*fact.right.rows))
    for r, ar in zip(fact.left.rows, a.rows):
        lr = [e.shifted(k) for e, k in zip(r, lam)]
        for col, ae in zip(cols, ar):
            yield LaurentSeries.dot([*zip(lr, col), (ae, minus_one)])


def _rank(ring, rows) -> int:
    """Rank by forward elimination; only the entries right of each pivot
    column are updated, since nothing to their left is read again."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if not ring.is_zero(rows[i][col])), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = ring.inv(top[col])
        for row in rows[rank + 1 :]:
            if ring.is_zero(row[col]):
                continue
            c = ring.mul(row[col], inv)
            for j in range(col + 1, ncols):
                row[j] = ring.sub(row[j], ring.mul(c, top[j]))
        rank += 1
    return rank


def basis_condition_rows(ring, alpha_inv, basis, exps, precision):
    """The row builder `_condition_rows` replaced: column k * n + d holds the
    coefficient of t^e in alpha_inv[c][d] * basis[k], summed along one
    diagonal by `product_coefficient` after its own window check."""
    n = alpha_inv.n
    for c in range(n):
        entries = [alpha_inv.entry(c, d) for d in range(n)]
        for e in exps:
            row = [ring.zero] * (n * len(basis))
            for d, entry in enumerate(entries):
                if entry.is_exact_zero:
                    continue
                for k, b in enumerate(basis):
                    row[k * n + d] = product_coefficient(ring, entry, b, e, precision)
            yield row


def product_coefficient(ring, a, b, e, precision):
    """Coefficient of t^e in a*b, reading only the needed diagonal after
    checking that e lies in the provable window of the product."""
    end = a.product_end(b)
    if end is not None and e >= end:
        raise InsufficientPrecision(
            f"coefficient at exponent {e} of a product is outside the provable window",
            precision,
        )
    if not a.coeffs or not b.coeffs:
        return ring.zero
    acc = ring.zero
    lo = max(a.shift, e - (b.shift + len(b.coeffs) - 1))
    hi = min(a.shift + len(a.coeffs) - 1, e - b.shift)
    for i in range(lo, hi + 1):
        acc = ring.add(acc, ring.mul(a.coeffs[i - a.shift], b.coeffs[e - i - b.shift]))
    return acc


def _reciprocal(ring, factors, window):
    """Expansion at 0 of 1 / prod f^k over the (exact series f, power k)
    pairs in `factors`, as the per-factor product it is by definition: the
    library expands one translated and reversed denominator instead.
    Exact when the product is constant, else on a window of length
    `window`."""
    prod = LaurentSeries.one(ring)
    for f, k in factors:
        for _ in range(k):
            prod = prod.mul(f)
    return prod.invert(window)


def per_twist_h0(datum, m, precision=None):
    ring = datum.ring
    if not ring.is_field:
        raise DomainError("section counting needs a field backend")
    n = datum.n
    bounds, binf = _pole_bounds(datum, precision)
    total = sum(bounds)
    deg = m + total + binf
    if deg < 0:
        return 0
    work = precision or DEFAULT_PRECISION
    rows = []
    for i, (p, nb) in enumerate(zip(datum.points, bounds)):
        if nb == 0:
            continue
        # t^k / prod_j (t - r_j)^{N_j} at r_i is (t + r_i)^k * local, where
        # local = t^{-N_i} / prod_{j != i} (t + r_i - r_j)^{N_j}
        others = [
            (LaurentSeries.from_terms(ring, [(0, ring.sub(p.r, q.r)), (1, ring.one)]), nq)
            for j, (q, nq) in enumerate(zip(datum.points, bounds))
            if j != i
        ]
        basis = [_reciprocal(ring, others, 2 * nb + 2).shifted(-nb)]
        lin = LaurentSeries.from_terms(ring, [(0, p.r), (1, ring.one)])
        for _ in range(deg):
            basis.append(basis[-1].mul(lin))
        alpha_inv = datum.loops[i].inverse(max(work, 2 * nb + 2))
        rows.extend(basis_condition_rows(ring, alpha_inv, basis, range(-2 * nb, 0), precision))

    if datum.infinity_loop is not None:
        # in s = 1/t, t^k / prod_j (t - r_j)^{N_j} is
        # s^{total - k} / prod_j (1 - r_j s)^{N_j}
        inv_denom = _reciprocal(
            ring,
            [
                (LaurentSeries.from_terms(ring, [(0, ring.one), (1, ring.neg(q.r))]), nq)
                for q, nq in zip(datum.points, bounds)
            ],
            2 * binf + 4,
        )
        basis = [inv_denom.shifted(total - k) for k in range(deg + 1)]
        alpha_inv = datum.infinity_loop.inverse(max(work, 2 * binf + abs(m) + 2))
        rows.extend(
            basis_condition_rows(ring, alpha_inv, basis, range(-m - 2 * binf, -m), precision)
        )

    # the library orders the columns by degree; a rank ignores the order
    return n * (deg + 1) - _rank(ring, rows)


def per_twist_splitting_type(datum, precision=None):
    n = datum.n
    bounds, binf = _pole_bounds(datum, precision)
    bound = sum(bounds) + binf
    table = [per_twist_h0(datum, m, precision) for m in range(-bound - 1, bound + 1)]
    a = []
    prev = 0
    for m, (low, high) in enumerate(zip(table, table[1:]), -bound):
        c = high - low
        if c < prev or c > n:
            raise InconsistentH0("section increments are not monotone in [0, n]")
        a.extend([-m] * (c - prev))
        prev = c
    if prev != n:
        raise InconsistentH0("section increments never reach the rank")
    return SplittingType(tuple(a))


def recursive_factor_elementary(m, precision=None):
    """`factor_elementary` after its input checks, with the recursive
    `_factor` below."""
    factors = _factor(m, precision, depth=0)
    out = Factorization(m.ring, tuple(f for f in factors if not f.parameter.is_exact_zero))
    if len(out) > 8:
        raise InsufficientPrecision("factorization exceeded the factor bound", precision)
    return out


def _factor(m: LoopMatrix, precision, depth: int) -> list[ElementaryFactor]:
    ring = m.ring
    one = LaurentSeries.one(ring)
    a, b = m.entry(0, 0), m.entry(0, 1)
    c, d = m.entry(1, 0), m.entry(1, 1)
    # already a single transvection (or the identity): one factor at most
    if a == one and d == one:
        if c.is_exact_zero:
            return [ElementaryFactor((1, 2), b)]
        if b.is_exact_zero:
            return [ElementaryFactor((2, 1), c)]
    if c.has_unit_lead():
        x = a.sub(one).div(c, precision)
        y = d.sub(one).div(c, precision)
        return [
            ElementaryFactor((1, 2), x),
            ElementaryFactor((2, 1), c),
            ElementaryFactor((1, 2), y),
        ]
    if c.is_zero_to_precision and b.has_unit_lead():
        if depth >= 2:
            raise InsufficientPrecision(
                "cannot certify a unit pivot after premultiplication", precision
            )
        shear = elementary_loop(ring, 2, 1, 0, one)  # E21(1)
        rest = _factor(shear.mat_mul(m), precision, depth + 1)
        return [ElementaryFactor((2, 1), one.neg())] + rest
    if c.is_zero_to_precision and b.is_zero_to_precision and a.has_unit_lead():
        u = a
        u_inv = u.invert(precision)
        return [
            ElementaryFactor((2, 1), u_inv),
            ElementaryFactor((1, 2), one.sub(u)),
            ElementaryFactor((2, 1), one.neg()),
            ElementaryFactor((1, 2), one.sub(u_inv)),
        ]
    raise InsufficientPrecision(
        "no entry with certifiable valuation to pivot the factorization", precision
    )


# -- a seeded corpus -----------------------------------------------------------


def _series(ring, rng, lo, hi):
    terms = [(e, ring.random(rng)) for e in range(lo, hi + 1) if rng.random() < 0.6]
    return LaurentSeries.from_terms(ring, terms)


def _loop_rows(ring, rng, n, pole):
    """Rows of a random loop: a monomial diagonal times transvections, with
    random constants; sometimes dense random entries, sometimes a row made
    exactly dependent on the others."""
    kind = rng.randrange(4)
    if kind == 0:
        return [[_series(ring, rng, -pole, 2) for _ in range(n)] for _ in range(n)]
    zero = LaurentSeries.zero(ring)
    rows = [
        [LaurentSeries.t_power(ring, rng.randint(-pole, pole)) if i == j else zero for j in range(n)]
        for i in range(n)
    ]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        x = _series(ring, rng, -1, 2)
        for r in rows:
            r[j] = r[j].add(r[i].mul(x))
    if kind == 1 and n > 1:
        c = LaurentSeries.constant(ring, ring.random(rng))
        rows[-1] = [a.add(b.mul(c)) for a, b in zip(rows[0], rows[-2 if n > 2 else 0])]
    return rows


def _truncate(rows, rng):
    mode = rng.randrange(4)
    if mode == 0:
        return rows
    k = rng.randint(1, 12 if mode < 3 else 20)
    if mode == 1:
        return [[e.truncated(k) for e in r] for r in rows]
    return [[e.truncated(k + (i + j) % 3) for j, e in enumerate(r)] for i, r in enumerate(rows)]


def _embed(rows, extra):
    """Block-diagonal sum with an identity block, so that a small loop takes
    the elimination path of `inverse`."""
    ring = rows[0][0].ring
    one, zero = LaurentSeries.one(ring), LaurentSeries.zero(ring)
    n = len(rows)
    out = [list(r) + [zero] * extra for r in rows]
    out += [[zero] * (n + i) + [one] + [zero] * (extra - i - 1) for i in range(extra)]
    return out


def _unknown_block(ring):
    # [[O(t^0), 1], [1, t]]: no precision certifies a pivot in column 0
    one = LaurentSeries.one(ring)
    return [[LaurentSeries.zero(ring, 0), one], [one, LaurentSeries.t_power(ring, 1)]]


def corpus(seed, rings, ranks, count, precisions):
    """(loop, precision) pairs: `count` random loops per ring and rank, those
    of rank < 4 also embedded at rank 4 or 5, and the unknown-pivot block."""
    rng = random.Random(seed)
    for ring in rings:
        for p in precisions:
            yield LoopMatrix(_unknown_block(ring)), p
        for n in ranks:
            for _ in range(count):
                rows = _truncate(_loop_rows(ring, rng, n, rng.randint(0, 2)), rng)
                p = rng.choice(precisions)
                yield LoopMatrix(rows), p
                if n < 4:
                    yield LoopMatrix(_embed(rows, 4 - n + rng.randint(0, 1))), p


# -- comparison ----------------------------------------------------------------


def _loop_key(m):
    return m.group, tuple((e.shift, repr(e.coeffs), e.known_end) for r in m.rows for e in r)


def outcome(fn, key):
    try:
        return "ok", key(fn())
    except Error as exc:
        return type(exc).__name__, str(exc), exc.suggested_precision


def _fact_key(f):
    return _loop_key(f.left), f.cocharacter.entries, _loop_key(f.right)


def _factors_key(f):
    return tuple(
        (x.position, x.parameter.shift, repr(x.parameter.coeffs), x.parameter.known_end)
        for x in f.factors
    )


def _errors(outcomes):
    return {o[0] for o in outcomes if o[0] != "ok"}


def test_gauss_inverse_matches_full_update_oracle():
    seen, fixed = [], 0
    fields = corpus("gauss-oracle", [QQ, PrimeField(10007)], range(1, 7), 7, (None, 8, 24))
    # products over k[x]/(x^m) cost more: smaller ranks and windows
    artinian = corpus("gauss-oracle-art", [ArtinianRing(QQ, 3)], range(1, 5), 8, (None, 8))
    for m, p in itertools.chain(fields, artinian):
        # from rank 4 on, inverse() goes straight to the elimination
        got = outcome(lambda: m.inverse(p) if m.n >= 4 else m._gauss_inverse(p), _loop_key)
        want = outcome(lambda: full_gauss_inverse(m, p), _loop_key)
        if want[0] == "NonUnitLeading" and got[0] == "ok":
            inv = m._gauss_inverse(p)  # a value: this does not raise
            ident = LoopMatrix.identity(m.ring, m.n)
            assert m.mat_mul(inv).agrees_with(ident) and inv.mat_mul(m).agrees_with(ident)
            fixed += 1
            continue
        if want[0] == "NonUnitLeading" and got[0] == "SingularToPrecision":
            d = m.det()
            assert not d.coeffs or not m.ring.is_unit(d.coeffs[0])
            fixed += 1
            continue
        assert got == want
        seen.append(got)
    assert {"InsufficientPrecision", "SingularToPrecision"} <= _errors(seen)
    assert len(seen) + fixed >= 180


def test_smith_normal_form_matches_full_update_oracle():
    seen = []
    # precision 2 compares U and V also at the shortest pivot inverses
    # GF(7) cancels often: column s meets exact zeros and O(t^k) entries
    rings = [QQ, PrimeField(10007), PrimeField(7)]
    for m, p in corpus("snf-oracle", rings, range(1, 6), 9, (None, 2, 10, 24)):
        got = outcome(lambda: smith_normal_form(m, p), _fact_key)
        assert got == outcome(lambda: full_smith_normal_form(m, p), _fact_key)
        seen.append(got)
    assert {"InsufficientPrecision", "SingularToPrecision"} <= _errors(seen)
    assert len(seen) >= 150


def test_smith_normal_form_answers_are_sound():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    answered = []

    # each entry of random_loop(n, pole, seed) keeps its first d known terms,
    # d <= 0 leaving only an O(t^k) at or below its valuation, or stays exact
    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        st.sampled_from([QQ, PrimeField(10007), PrimeField(7)]),
        st.integers(2, 5),
        st.integers(0, 2),
        st.integers(0, 10**6),
        st.sampled_from((None, 2, 4, 8)),
        st.data(),
    )
    def check(ring, n, pole, seed, precision, data):
        g = random_loop(n, pole, seed, ring)

        def window(e):
            d = data.draw(st.none() | st.integers(-1, 8))
            return e if d is None else e.truncated(e.shift + d)

        a = LoopMatrix([[window(e) for e in r] for r in g.rows])
        try:
            fact = smith_normal_form(a, precision)
        except (InsufficientPrecision, SingularToPrecision):
            return
        assert fact.cocharacter.entries == g.built_from
        assert fact.left.is_positive() and fact.right.is_positive()
        assert all(res.is_zero_to_precision for res in reconstruction_residuals(a, fact))
        answered.append(any(not e.is_exact for r in a.rows for e in r))

    check()
    # answers on exact loops and on truncated ones alike
    assert {False, True} <= set(answered)


def test_stratum_answers_are_sound_and_no_answer_is_lost():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    answered = []

    # windows of up to 24 known terms, longer than the quarter and half of
    # the precision to which stratum's rungs cut them
    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(
        st.sampled_from([QQ, PrimeField(10007), PrimeField(7)]),
        st.integers(2, 5),
        st.integers(0, 2),
        st.integers(0, 10**6),
        st.sampled_from((None, 4, 8, 16, 32)),
        st.data(),
    )
    def check(ring, n, pole, seed, precision, data):
        g = random_loop(n, pole, seed, ring)

        def window(e):
            d = data.draw(st.none() | st.integers(-1, 24))
            return e if d is None else e.truncated(e.shift + d)

        a = LoopMatrix([[window(e) for e in r] for r in g.rows])
        try:
            lam = stratum(a, precision)
        except (InsufficientPrecision, SingularToPrecision):
            # smith_normal_form at the precision given has no answer either
            with pytest.raises((InsufficientPrecision, SingularToPrecision)):
                smith_normal_form(a, precision)
            return
        assert lam.entries == g.built_from
        answered.append(any(not e.is_exact for r in a.rows for e in r))

    check()
    assert {False, True} <= set(answered)


def _sl2_corpus(seed, count):
    """(loop, precision) pairs over QQ and GF(10007) whose determinant agrees
    with 1: products of 0-4 transvections with exact or truncated parameters,
    or diagonal loops; then c replaced by O(t^k) or truncated, sometimes with
    a or b unknown too, so that the premultiplication and both raise sites
    are met."""
    rng = random.Random(seed)
    while count:
        ring = rng.choice([QQ, PrimeField(10007)])
        one, zero = LaurentSeries.one(ring), LaurentSeries.zero(ring)
        if rng.random() < 0.1:
            u = _series(ring, rng, 0, 2).shifted(rng.randint(-2, 2))
            if not u.coeffs:
                continue
            if rng.random() < 0.5:
                u = u.truncated(u.shift + rng.randint(1, 5))
            rows = [[u, zero], [zero, u.invert(rng.choice((4, 16)))]]
        else:
            rows = [[one, zero], [zero, one]]
            for _ in range(rng.randint(0, 4)):
                i, j = rng.choice(((0, 1), (1, 0)))
                x = _series(ring, rng, -1, 1)
                if rng.random() < 0.3:
                    x = x.truncated(rng.randint(-1, 4))
                for r in rows:
                    r[j] = r[j].add(r[i].mul(x))
        mode, k = rng.randrange(6), rng.randint(-2, 4)
        if mode == 1:
            rows = [[e.truncated(k + rng.randint(0, 3)) for e in r] for r in rows]
        elif mode == 3:
            rows[1][0] = rows[1][0].truncated(k)
        elif mode > 1:
            rows[1][0] = LaurentSeries.zero(ring, k)
            if mode == 4:
                rows[0][0] = rows[0][0].truncated(k + rng.randint(-1, 1))
            elif mode == 5:
                rows[0][1] = LaurentSeries.zero(ring, k + rng.randint(-1, 2))
        m = LoopMatrix(rows)
        if m.det().agrees_with(one):
            count -= 1
            yield m, rng.choice((None, 8))


def test_factor_elementary_matches_recursive_oracle():
    seen = []
    for m, p in _sl2_corpus("factor-oracle", 3000):
        got = outcome(lambda: factor_elementary(m, p), _factors_key)
        assert got == outcome(lambda: recursive_factor_elementary(m, p), _factors_key)
        c, b = m.entry(1, 0), m.entry(0, 1)
        premultiplied = c.is_zero_to_precision and b.has_unit_lead()
        seen.append((premultiplied, got[0] if got[0] == "ok" else got[1]))
    counts = collections.Counter(seen)
    assert counts[True, "ok"] >= 200
    assert counts[True, "cannot certify a unit pivot after premultiplication"] >= 200
    assert counts[False, "no entry with certifiable valuation to pivot the factorization"] >= 200
    assert counts[False, "ok"] >= 1500


def _data(seed, count):
    """(datum, precision) pairs over QQ and GF(10007): ranks 1-3, 0-2 marked
    points, a loop at infinity or not, loops exact or truncated at 6 or 3."""
    rng = random.Random(seed)
    while count:
        ring = rng.choice([QQ, PrimeField(10007)])
        n, cut = rng.randint(1, 3), rng.choice((None, 6, 3))

        def loop():
            lp = random_loop(n, rng.randint(0, 2), rng.randrange(10**6), ring)
            return lp if cut is None else LoopMatrix([[e.truncated(cut) for e in r] for r in lp.rows])

        points = ("0", "1")[: rng.randint(0, 2)]
        loops = tuple(loop() for _ in points)
        inf = loop() if rng.random() < 0.5 else None
        try:
            datum = ModificationDatum(ring, n, points, loops, inf)
        except DomainError:  # a truncated loop can be singular on its window
            continue
        count -= 1
        yield datum, rng.choice((None, 24)), rng


def _counted(fn):
    try:
        return "ok", fn()
    except Error as exc:
        return type(exc).__name__, re.sub(r"-?\d+", "#", str(exc)), exc.suggested_precision


def test_section_counts_match_per_twist_oracle():
    seen, far = [], 0
    for d, p, rng in _data("h0-oracle", 240):
        got = _counted(lambda: splitting_type(d, p))
        assert got == _counted(lambda: per_twist_splitting_type(d, p))
        seen.append(got)
        try:
            bounds, binf = _pole_bounds(d, p)
        except Error:  # UnboundedPole, on both sides
            bounds, binf = [], 2
        bound = sum(bounds) + binf
        for m in {-bound - 2, -bound, rng.randint(-bound, bound), bound, bound + 1, bound + 3}:
            got = _counted(lambda: h0(d, m, p))
            assert got == _counted(lambda: per_twist_h0(d, m, p)), (m, bound)
            far += m > bound and got[0] == "ok"
    assert {"ok", "InsufficientPrecision"} <= {o[0] for o in seen}
    assert far >= 200


def _place(ring, rng):
    """(basis, base, step, exps) as `_section_counts` builds them at a marked
    point among one to three, or at infinity at a random twist m: the old
    builder's basis is base * step^k for k below the width."""
    pts = [ring.of(x) for x in rng.sample(range(-3, 4), rng.randint(1, 3))]
    bounds = [rng.randint(1, 3) for _ in pts]
    total = sum(bounds)
    if rng.random() < 0.5:
        i = rng.randrange(len(pts))
        others = [
            (LaurentSeries.from_terms(ring, [(0, ring.sub(pts[i], q)), (1, ring.one)]), nq)
            for q, nq in zip(pts, bounds)
            if q != pts[i]
        ]
        base = _reciprocal(ring, others, 2 * bounds[i] + 2).shifted(-bounds[i])
        step = LaurentSeries.from_terms(ring, [(0, pts[i]), (1, ring.one)])
        basis = [base]
        for _ in range(rng.randint(0, 2 * total)):
            basis.append(basis[-1].mul(step))
        return basis, base, step, range(-2 * bounds[i], 0)
    binf = rng.randint(0, 2)
    m = rng.randint(-total - binf, total + binf)
    factors = [
        (LaurentSeries.from_terms(ring, [(0, ring.one), (1, ring.neg(q))]), nq)
        for q, nq in zip(pts, bounds)
    ]
    inv_denom = _reciprocal(ring, factors, 2 * binf + 4)
    basis = [inv_denom.shifted(total - k) for k in range(m + total + binf + 1)]
    exps = range(-m - rng.randint(0, 2 * binf + 1), -m)
    return basis, inv_denom.shifted(total), LaurentSeries.t_power(ring, -1), exps


def test_condition_rows_match_basis_oracle():
    rng = random.Random("rows-oracle")
    seen = collections.Counter()
    for _ in range(300):
        ring = rng.choice([QQ, PrimeField(10007)])
        n = rng.randint(1, 3)
        alpha_inv = LoopMatrix(_truncate(_loop_rows(ring, rng, n, rng.randint(0, 2)), rng))
        basis, base, step, exps = _place(ring, rng)
        p = rng.choice((None, 24))
        got = _counted(lambda: _condition_rows(ring, alpha_inv, base, step, len(basis), exps, p))
        want = _counted(lambda: list(basis_condition_rows(ring, alpha_inv, basis, exps, p)))
        assert got == want
        if got[0] == "ok":
            assert all(type(x) is type(ring.zero) for row in got[1] for x in row)
        seen[got[0], "infinity" if step.shift < 0 else "point"] += 1
    # answers and precision errors, at marked points and at infinity
    assert all(seen[o, w] for o in ("ok", "InsufficientPrecision") for w in ("point", "infinity"))
