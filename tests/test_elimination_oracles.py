"""Full-update eliminations kept as reference oracles.

`smith_normal_form` and `LoopMatrix._gauss_inverse` update only the entries
of the working matrix that are read again.  The copies below are the
eliminations as first written: they update every entry, and Gauss-Jordan
carries the inverse as a second matrix in lockstep.  On a seeded corpus every
value (each entry's group, shift, coefficients and window) and every error
(class, message, suggested precision) must agree exactly.

The oracle pivot takes every entry known to be nonzero.  Over k[x]/(x^m) the
library pivot also needs a unit leading coefficient, so there the library
may return an inverse where the oracle raised NonUnitLeading; that inverse
is checked on both sides against the identity.  Where the library instead
finds no pivot left, the determinant must not be a unit.
"""

import itertools
import random

from loopgr import (
    QQ,
    ArtinianRing,
    LaurentSeries,
    LoopMatrix,
    PrimeField,
    smith_normal_form,
)
from loopgr.cartan import CartanFactorization, Cocharacter, _certify
from loopgr.errors import Error, InsufficientPrecision, SingularToPrecision
from loopgr.loops import _least_valuation

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
    _certify(a, fact, precision)
    return fact


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
    for m, p in corpus("snf-oracle", [QQ, PrimeField(10007)], range(1, 6), 9, (None, 10, 24)):
        got = outcome(lambda: smith_normal_form(m, p), _fact_key)
        assert got == outcome(lambda: full_smith_normal_form(m, p), _fact_key)
        seen.append(got)
    assert {"InsufficientPrecision", "SingularToPrecision"} <= _errors(seen)
    assert len(seen) >= 150
