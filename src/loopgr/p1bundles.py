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
from .series import DEFAULT_PRECISION, LaurentSeries, RationalFunction, poly_mul, poly_trim


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
            if lp.det().is_zero_to_precision:
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
            k = f.pole_order_at(r)
            for _ in range(k):
                den, _ = _divide_linear(ring, den, r)
        if len(den) > 1:
            raise DomainError("component has a pole away from the marked points")
    center = pts[i]
    return [f.expand_at(center, precision) for f in v]


def _divide_linear(ring, poly, r):
    from .series import poly_divmod

    return poly_divmod(ring, poly, poly_trim(ring, (ring.neg(r), ring.one)))


# ---------------------------------------------------------------------------
# exact linear algebra over the backend field


def _rank(ring, rows) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = None
        for i in range(rank, len(rows)):
            if not ring.is_zero(rows[i][col]):
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ring.inv(rows[rank][col])
        rows[rank] = [ring.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i == rank or ring.is_zero(rows[i][col]):
                continue
            c = rows[i][col]
            rows[i] = [ring.sub(x, ring.mul(c, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
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
    unknowns = n * (deg + 1)

    rows = []
    for i, (p, nb) in enumerate(zip(datum.points, bounds)):
        if nb == 0:
            continue
        need = nb + 1
        inv_fac = _shifted_factor_inverse(ring, datum.points, bounds, i, need)
        alpha_inv = datum.loops[i].inverse(max(precision or DEFAULT_PRECISION, 2 * nb + 2))
        # basis series for t^k at this point: (t + r_i)^k * inv_fac
        shifted_pows = _shifted_powers(ring, p.r, deg, inv_fac)
        for c in range(n):
            row_entries = []
            for d in range(n):
                entry = alpha_inv.entry(c, d)
                row_entries.append(entry)
            for e in range(-2 * nb, 0):
                row = [ring.zero] * unknowns
                nonzero = False
                for d in range(n):
                    entry = row_entries[d]
                    if entry.is_zero_to_precision:
                        continue
                    for k in range(deg + 1):
                        coeff = _product_coefficient(ring, entry, shifted_pows[k], e, precision)
                        if not ring.is_zero(coeff):
                            row[d * (deg + 1) + k] = coeff
                            nonzero = True
                if nonzero:
                    rows.append(row)

    if datum.infinity_loop is not None:
        rows.extend(
            _infinity_rows(ring, datum, bounds, binf, m, deg, unknowns, precision)
        )

    return unknowns - _rank(ring, rows)


def _shifted_factor_inverse(ring, points, bounds, i, need):
    """Expansion at point i of 1/prod_j (t - r_j)^{N_j}: a Laurent series
    with valuation -N_i, computed on a window of length `need` + N_i."""
    r_i = points[i].r
    unit = (ring.one,)
    for j, (p, nb) in enumerate(zip(points, bounds)):
        if j == i:
            continue
        lin = poly_trim(ring, (ring.sub(r_i, p.r), ring.one))
        for _ in range(nb):
            unit = poly_mul(ring, unit, lin)
    n_i = bounds[i]
    unit_series = LaurentSeries.make(ring, 0, unit, None)
    window = need + n_i + 1
    return unit_series.invert(window).shifted(-n_i)


def _shifted_powers(ring, r, deg, inv_fac):
    """Laurent expansions of t^k / prod (t - r_j)^{N_j} at the point r for
    k = 0..deg, i.e. (t + r)^k * inv_fac."""
    out = [inv_fac]
    lin = LaurentSeries.from_terms(ring, [(0, r), (1, ring.one)])
    for _ in range(deg):
        out.append(out[-1].mul(lin))
    return out


def _product_coefficient(ring, a: LaurentSeries, b: LaurentSeries, e: int, precision):
    """Coefficient of t^e in a*b, reading only the needed diagonal after
    checking that e lies in the provable window of the product."""
    ends = []
    if a.known_end is not None:
        vb = b.valuation_lower_bound()
        if vb is None:
            return ring.zero
        ends.append(a.known_end + vb)
    if b.known_end is not None:
        va = a.valuation_lower_bound()
        if va is None:
            return ring.zero
        ends.append(b.known_end + va)
    if ends and e >= min(ends):
        raise InsufficientPrecision(
            f"coefficient at exponent {e} of a product is outside the provable window",
            suggested_precision=2 * (precision or DEFAULT_PRECISION),
        )
    if not a.coeffs or not b.coeffs:
        return ring.zero
    acc = ring.zero
    lo = max(a.shift, e - (b.shift + len(b.coeffs) - 1))
    hi = min(a.shift + len(a.coeffs) - 1, e - b.shift)
    for i in range(lo, hi + 1):
        acc = ring.add(acc, ring.mul(a.coeffs[i - a.shift], b.coeffs[e - i - b.shift]))
    return acc


def _infinity_rows(ring, datum, bounds, binf, m, deg, unknowns, precision):
    """Condition rows at infinity: coefficients of s^e, e < -m, of
    alpha_inf^{-1} * v(1/s) must vanish."""
    n = datum.n
    total = sum(bounds)
    denom = (ring.one,)
    for p, nb in zip(datum.points, bounds):
        lin = poly_trim(ring, (ring.one, ring.neg(p.r)))  # 1 - r*s
        for _ in range(nb):
            denom = poly_mul(ring, denom, lin)
    denom_series = LaurentSeries.make(ring, 0, denom, None)
    window = 2 * binf + 4
    inv_denom = denom_series.invert(window)
    alpha_inv = datum.infinity_loop.inverse(
        max(precision or DEFAULT_PRECISION, 2 * binf + abs(m) + 2)
    )
    # v_d = t^k -> s^(total - k) * inv_denom in the coordinate s
    basis = {}
    for k in range(deg + 1):
        basis[k] = inv_denom.shifted(total - k)
    rows = []
    for c in range(n):
        for e in range(-m - 2 * binf, -m):
            row = [ring.zero] * unknowns
            nonzero = False
            for d in range(n):
                entry = alpha_inv.entry(c, d)
                if entry.is_zero_to_precision:
                    continue
                for k in range(deg + 1):
                    coeff = _product_coefficient(ring, entry, basis[k], e, precision)
                    if not ring.is_zero(coeff):
                        row[d * (deg + 1) + k] = coeff
                        nonzero = True
            if nonzero:
                rows.append(row)
    return rows


def splitting_type(datum: ModificationDatum, precision: int | None = None) -> SplittingType:
    """The unique non-increasing tuple a with h0(m) = sum max(0, a_i+m+1)
    on the whole scan range; the scan range brackets every a_i."""
    n = datum.n
    bounds, binf = _pole_bounds(datum, precision)
    spread = n * (sum(bounds) + binf) + 1
    lo, hi = -spread, spread
    table = {m: h0(datum, m, precision) for m in range(lo, hi + 1)}
    counts = []
    for m in range(lo + 1, hi + 1):
        counts.append((m, table[m] - table[m - 1]))
    # increments count the a_i >= -m; recover multiplicities
    a = []
    prev = 0
    for m, c in counts:
        if c < prev or c > n:
            raise InconsistentH0("section increments are not monotone in [0, n]")
        a.extend([-m] * (c - prev))
        prev = c
    if prev != n:
        raise InconsistentH0("section increments never reach the rank")
    a.sort(reverse=True)
    st = SplittingType(tuple(a))
    for m in range(lo, hi + 1):
        if table[m] != st.sections(m):
            raise InconsistentH0("no splitting type fits the section counts")
    return st


def is_trivial(datum: ModificationDatum, precision: int | None = None) -> bool:
    return splitting_type(datum, precision).is_trivial


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
