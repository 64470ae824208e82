"""Bundles on the projective line presented by one loop per marked point.

A :class:`ModificationDatum` holds marked rational points of the affine line
and one loop matrix per point (plus an optional loop at infinity written in
the coordinate s = 1/t).  It presents the rank-n bundle glued from the free
sheaf away from the points and the lattice alpha_i * k[[t]]^n at each point:
a global section is a vector v of rational functions, regular away from the
marked points, whose expansion at every point i satisfies
``alpha_i^{-1} * v`` pole-free.  With a twist allowing pole order m at
infinity this gives a finite exact linear system; its kernel dimensions
determine the splitting type, the complete isomorphism invariant.

Sign convention, fixed once: a single point with loop t^lam yields splitting
type sorted(-lam).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import Cocharacter, stratum
from .errors import (
    DomainError,
    InconsistentH0,
    InsufficientPrecision,
    MarkedPointError,
    UnboundedPole,
)
from .loops import LoopMatrix
from .rings import Ring
from .series import DEFAULT_PRECISION, LaurentSeries, RationalFunction, poly_mul, poly_strip_root


@dataclass(frozen=True)
class MarkedPoint:
    """A rational point of the affine line, the center t = r."""

    r: object

    def __repr__(self):
        return f"MarkedPoint({self.r!r})"


@dataclass(frozen=True)
class SplittingType:
    """The non-increasing twist tuple (a_1, ..., a_n) of a rank-n bundle."""

    a: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(x) for x in self.a)
        if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
            raise DomainError("splitting type must be non-increasing")
        object.__setattr__(self, "a", a)

    def degree(self) -> int:
        return sum(self.a)

    @property
    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.a)

    def sections(self, m: int) -> int:
        """Expected section count of the twist by m: sum of max(0, a_i+m+1)."""
        return sum(max(0, x + m + 1) for x in self.a)


@dataclass(frozen=True)
class ModificationDatum:
    """Marked points with one loop each; the glued-bundle presentation."""

    ring: Ring
    n: int
    points: tuple[MarkedPoint, ...] = ()
    loops: tuple[LoopMatrix, ...] = ()
    infinity_loop: LoopMatrix | None = None

    def __post_init__(self):
        pts = tuple(
            p if isinstance(p, MarkedPoint) else MarkedPoint(self.ring.of(p))
            for p in self.points
        )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "loops", tuple(self.loops))
        if len(pts) != len(self.loops):
            raise DomainError("need exactly one loop per marked point")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = self.ring.sub(pts[i].r, pts[j].r)
                if not self.ring.is_unit(d):
                    raise MarkedPointError(
                        "marked points must have unit pairwise differences"
                    )
        all_loops = list(self.loops) + (
            [self.infinity_loop] if self.infinity_loop is not None else []
        )
        for lp in all_loops:
            if lp.n != self.n:
                raise DomainError("loop size does not match the datum rank")
            lp.ring.require_same(self.ring)
            # a determinant zero only on its window does not prove the loop
            # singular; inverse() decides that with its own pivots
            if lp.det().is_exact_zero:
                raise DomainError("every loop must be invertible to precision")

    @classmethod
    def empty(cls, ring: Ring, n: int) -> "ModificationDatum":
        return cls(ring, n)

    @classmethod
    def at_points(cls, ring: Ring, points, loops, infinity_loop=None) -> "ModificationDatum":
        loops = tuple(loops)
        if not loops and infinity_loop is None:
            raise DomainError("cannot infer the rank; use ModificationDatum.empty")
        n = loops[0].n if loops else infinity_loop.n
        return cls(ring, n, tuple(points), loops, infinity_loop)

    def with_infinity(self, loop: LoopMatrix) -> "ModificationDatum":
        return ModificationDatum(self.ring, self.n, self.points, self.loops, loop)


def modify(datum: ModificationDatum, point, g: LoopMatrix) -> ModificationDatum:
    """Add the modification g at the given point: append a new marked point,
    or compose on the right with the existing loop there."""
    ring = datum.ring
    r = point.r if isinstance(point, MarkedPoint) else ring.of(point)
    g.ring.require_same(ring)
    if g.n != datum.n:
        raise DomainError("modification size does not match the datum rank")
    for i, p in enumerate(datum.points):
        if ring.eq(p.r, r):
            loops = list(datum.loops)
            loops[i] = loops[i].mat_mul(g)
            return ModificationDatum(ring, datum.n, datum.points, tuple(loops), datum.infinity_loop)
    return ModificationDatum(
        ring,
        datum.n,
        datum.points + (MarkedPoint(r),),
        datum.loops + (g,),
        datum.infinity_loop,
    )


def expand_at(v, datum: ModificationDatum, i: int, precision: int | None = None):
    """Componentwise Laurent expansion of a vector of rational functions at
    marked point i, after checking that its poles sit only at the marked
    points (and infinity)."""
    ring = datum.ring
    pts = [p.r for p in datum.points]
    for f in v:
        if not isinstance(f, RationalFunction):
            raise DomainError("expand_at expects rational-function components")
        den = f.den
        for r in pts:
            _, den = poly_strip_root(ring, den, r)
        if len(den) > 1:
            raise DomainError("component has a pole away from the marked points")
    center = pts[i]
    return [f.expand_at(center, precision) for f in v]


# ---------------------------------------------------------------------------
# exact linear algebra over the backend field


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


# ---------------------------------------------------------------------------


def _pole_bounds(datum: ModificationDatum, precision):
    try:
        bounds = [lp.pole_bound(precision) for lp in datum.loops]
        binf = (
            datum.infinity_loop.pole_bound(precision)
            if datum.infinity_loop is not None
            else 0
        )
    except InsufficientPrecision as exc:
        raise UnboundedPole(
            "cannot certify a finite pole bound for a loop of the datum"
        ) from exc
    return bounds, binf


def h0(datum: ModificationDatum, m: int, precision: int | None = None) -> int:
    """Dimension of the space of global sections with pole order up to m
    allowed at infinity.

    Candidate sections are v = w / prod_i (t - r_i)^{N_i} with polynomial
    numerator components; the conditions are the vanishing of all negative
    coefficients of alpha_i^{-1} * v at each point (and, when a loop at
    infinity is present, of the coefficients of s^e, e < -m, at infinity).
    All arithmetic is exact, so the kernel dimension is exact.
    """
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
            ((ring.sub(p.r, q.r), ring.one), nq)
            for j, (q, nq) in enumerate(zip(datum.points, bounds))
            if j != i
        ]
        basis = [_reciprocal(ring, others, 2 * nb + 2).shifted(-nb)]
        lin = LaurentSeries.from_terms(ring, [(0, p.r), (1, ring.one)])
        for _ in range(deg):
            basis.append(basis[-1].mul(lin))
        alpha_inv = datum.loops[i].inverse(max(work, 2 * nb + 2))
        rows.extend(_condition_rows(ring, alpha_inv, basis, range(-2 * nb, 0), precision))

    if datum.infinity_loop is not None:
        # in s = 1/t, t^k / prod_j (t - r_j)^{N_j} is
        # s^{total - k} / prod_j (1 - r_j s)^{N_j}
        inv_denom = _reciprocal(
            ring,
            [((ring.one, ring.neg(q.r)), nq) for q, nq in zip(datum.points, bounds)],
            2 * binf + 4,
        )
        basis = [inv_denom.shifted(total - k) for k in range(deg + 1)]
        alpha_inv = datum.infinity_loop.inverse(max(work, 2 * binf + abs(m) + 2))
        rows.extend(
            _condition_rows(ring, alpha_inv, basis, range(-m - 2 * binf, -m), precision)
        )

    return n * (deg + 1) - _rank(ring, rows)


def _reciprocal(ring, factors, window):
    """Expansion at 0 of 1 / prod f^k over the (polynomial f, power k) pairs
    in `factors`; f(0) must be a unit.  Exact when the product is constant,
    else on a window of length `window`."""
    prod = (ring.one,)
    for f, k in factors:
        for _ in range(k):
            prod = poly_mul(ring, prod, f)
    return LaurentSeries.make(ring, 0, prod, None).invert(window)


def _condition_rows(ring, alpha_inv, basis, exps, precision):
    """One row per (c, e): the coefficient of t^e in component c of
    alpha_inv * v, as a linear form in the unknowns; column d * len(basis) + k
    multiplies basis[k] in component d of v.  Only exactly zero entries are
    skipped, so an entry that is zero on its window still has that window
    checked by `_product_coefficient`."""
    n, width = alpha_inv.n, len(basis)
    for c in range(n):
        entries = [alpha_inv.entry(c, d) for d in range(n)]
        for e in exps:
            row = [ring.zero] * (n * width)
            for d, entry in enumerate(entries):
                if entry.is_exact_zero:
                    continue
                for k, b in enumerate(basis):
                    row[d * width + k] = _product_coefficient(ring, entry, b, e, precision)
            yield row


def _product_coefficient(ring, a: LaurentSeries, b: LaurentSeries, e: int, precision):
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


def splitting_type(datum: ModificationDatum, precision: int | None = None) -> SplittingType:
    """The unique non-increasing tuple a with h0(m) = sum max(0, a_i+m+1).
    With B the total pole bound, the bundle lies between O(-B)^n and O(B)^n,
    so every a_i is in [-B, B]: h0(-B-1) = 0, and the increments
    h0(m) - h0(m-1), which count the a_i >= -m, are read for m = -B..B."""
    n = datum.n
    bounds, binf = _pole_bounds(datum, precision)
    bound = sum(bounds) + binf
    table = [h0(datum, m, precision) for m in range(-bound - 1, bound + 1)]
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


def is_trivial(datum: ModificationDatum, precision: int | None = None) -> bool:
    """Grothendieck's criterion: h0(-1) = 0 puts every a_i <= 0, and then
    h0(0) = n puts every a_i = 0."""
    return h0(datum, -1, precision) == 0 and h0(datum, 0, precision) == datum.n


def is_isomorphic(
    b1: ModificationDatum, b2: ModificationDatum, precision: int | None = None
) -> bool:
    """Bundles over the same line are isomorphic exactly when their splitting
    types agree."""
    b1.ring.require_same(b2.ring)
    if b1.n != b2.n:
        return False
    return splitting_type(b1, precision) == splitting_type(b2, precision)


def strata_of(datum: ModificationDatum, precision: int | None = None) -> list[Cocharacter]:
    """Stratum of each loop, in point order, with the infinity loop last."""
    out = [stratum(lp, precision) for lp in datum.loops]
    if datum.infinity_loop is not None:
        out.append(stratum(datum.infinity_loop, precision))
    return out


def all_strata_zero(datum: ModificationDatum, precision: int | None = None) -> bool:
    """True exactly when every loop sits in the zero stratum, i.e. the datum
    is the trivial section of the Grassmannian over the marked set."""
    return all(lam.is_zero for lam in strata_of(datum, precision))
