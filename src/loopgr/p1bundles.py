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
    MAX_PRECISION,
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
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_PRECISION:
            raise DomainError(f"datum rank must be an int in [1, {MAX_PRECISION}], got {self.n!r}")
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
        for lp in self.all_loops:
            if lp.n != self.n:
                raise DomainError("loop size does not match the datum rank")
            lp.ring.require_same(self.ring)
            # a determinant zero only on its window does not prove the loop
            # singular; inverse() decides that with its own pivots
            if lp.det().is_exact_zero:
                raise DomainError("every loop must be invertible to precision")

    @property
    def all_loops(self) -> tuple[LoopMatrix, ...]:
        """The loops at the points in order, then the infinity loop if any."""
        return self.loops + ((self.infinity_loop,) if self.infinity_loop is not None else ())

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
        if p.r == r:
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


def _pole_bounds(datum: ModificationDatum, precision):
    if not datum.ring.is_field:
        raise DomainError("section counting needs a field backend")
    try:
        bounds = [lp.pole_bound(precision) for lp in datum.all_loops]
    except InsufficientPrecision as exc:
        raise UnboundedPole("cannot certify a finite pole bound for a loop of the datum") from exc
    return bounds[: len(datum.loops)], sum(bounds[len(datum.loops) :])


def h0(datum: ModificationDatum, m: int, precision: int | None = None) -> int:
    """Dimension of the space of global sections with pole order up to m
    allowed at infinity.

    Candidate sections are v = w / prod_i (t - r_i)^{N_i} with polynomial
    numerator components; the conditions are the vanishing of all negative
    coefficients of alpha_i^{-1} * v at each point (and, when a loop at
    infinity is present, of the coefficients of s^e, e < -m, at infinity).
    All arithmetic is exact, so the kernel dimension is exact."""
    return _section_counts(datum, m, m, precision)[0]


def _section_counts(datum: ModificationDatum, low: int, high: int, precision) -> list[int]:
    """h0(m) for m = low..high from one elimination.  Every a_i lies in
    [-B, B], B the total pole bound, so h0 is 0 below -B and grows by n per
    twist above B; rows are built only for the twists between.  Column k*n + d
    is the unknown of degree k in component d, so twist m reads a prefix of
    n(m + B + 1) columns.  The finite-point rows, independent of m, are built
    once at the top twist, and each lower twist adds its n rows at s^(-m-1) at
    infinity.  h0(m) is the prefix width less the leading columns inside it."""
    ring = datum.ring
    n = datum.n
    bounds, binf = _pole_bounds(datum, precision)
    total = sum(bounds)
    bound = total + binf
    top, bottom = min(high, bound), max(min(low, bound), -bound)
    if top < -bound:
        return [0] * (high - low + 1)
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
        for _ in range(top + bound):
            basis.append(basis[-1].mul(lin))
        alpha_inv = datum.loops[i].inverse(max(work, 2 * nb + 2))
        rows.extend(_condition_rows(ring, alpha_inv, basis, range(-2 * nb, 0), precision))
    if datum.infinity_loop is not None:
        # in s = 1/t, t^k / prod_j (t - r_j)^{N_j} is
        # s^{total - k} / prod_j (1 - r_j s)^{N_j}
        factors = [((ring.one, ring.neg(q.r)), nq) for q, nq in zip(datum.points, bounds)]
        inv_denom = _reciprocal(ring, factors, 2 * binf + 4)
        inf_basis = [inv_denom.shifted(total - k) for k in range(top + bound + 1)]
        window = 2 * binf + max(abs(bottom), abs(top)) + 2
        inf_inv = datum.infinity_loop.inverse(max(work, window))
    counts, pivots = {}, {}  # pivots: leading column -> rest of its echelon row
    start = -top - 2 * binf
    for m in range(top, bottom - 1, -1):
        size = n * (m + bound + 1)
        if datum.infinity_loop is not None:
            # on this prefix the rows at s^e, e < -m - 2*binf, vanish
            exps, start = range(start, -m), -m
            rows += _condition_rows(ring, inf_inv, inf_basis[: size // n], exps, precision)
        led = sum(1 for col in pivots if col < size)
        for row in rows:
            if led == size:
                break
            led += _insert(ring, pivots, row)
        rows, counts[m] = [], size - led
    return [counts.get(min(m, bound), 0) + n * max(0, m - bound) for m in range(low, high + 1)]


def _insert(ring, pivots, row) -> int:
    """Reduce `row` by the echelon rows in `pivots`; keep a nonzero rest as
    a new one and return 1, else 0.  An echelon row is kept scaled to a
    leading one, as its nonzero entries right of the leading column: those
    are the only entries a reduction reads."""
    for col in range(len(row)):
        x = row[col]
        if ring.is_zero(x):
            continue
        if col not in pivots:
            inv, rest = ring.inv(x), enumerate(row[col + 1 :], col + 1)
            pivots[col] = [(j, ring.mul(inv, y)) for j, y in rest if not ring.is_zero(y)]
            return 1
        for j, y in pivots[col]:
            if j >= len(row):
                break
            row[j] = ring.sub(row[j], ring.mul(x, y))
    return 0


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
    alpha_inv * v, as a linear form in the unknowns; column k * n + d
    multiplies basis[k] in component d of v.  Only exactly zero entries are
    skipped, so an entry that is zero on its window still has that window
    checked by `_product_coefficient`."""
    n = alpha_inv.n
    for c in range(n):
        entries = [alpha_inv.entry(c, d) for d in range(n)]
        for e in exps:
            row = [ring.zero] * (n * len(basis))
            for d, entry in enumerate(entries):
                if entry.is_exact_zero:
                    continue
                for k, b in enumerate(basis):
                    row[k * n + d] = _product_coefficient(ring, entry, b, e, precision)
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
    table = _section_counts(datum, -bound - 1, bound, precision)
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
    return [stratum(lp, precision) for lp in datum.all_loops]


def all_strata_zero(datum: ModificationDatum, precision: int | None = None) -> bool:
    """True exactly when every loop sits in the zero stratum, i.e. the datum
    is the trivial section of the Grassmannian over the marked set."""
    return all(lam.is_zero for lam in strata_of(datum, precision))
