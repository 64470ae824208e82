"""Matrix loop groups: invertible matrices over formal Laurent series.

A :class:`LoopMatrix` is an n x n matrix of Laurent series over a common
backend, assumed invertible over the Laurent field.  The pole bound of a loop
is the least N such that the loop and its inverse both have entries with
valuation >= -N; pole-free loops with invertible constant term form the
positive (jet) subgroup.
"""

from __future__ import annotations

import random

from .errors import (
    BackendMismatch,
    DomainError,
    InsufficientPrecision,
    NonUnitLeading,
    SingularToPrecision,
)
from .rings import QQ, Ring, echelon_insert
from .series import DEFAULT_PRECISION, LaurentSeries


def _minor(rows, ri, ci, memo) -> LaurentSeries:
    """Determinant of the submatrix of `rows` on the row-index tuple `ri` and
    the column-index tuple `ci`, by expansion along its first row.

    Division free, so it works over every backend.  Minors are memoized on
    (ri, ci): a full determinant costs O(n 2^n) products, not n!.
    """
    if len(ri) == 1:
        return rows[ri[0]][ci[0]]
    key = (ri, ci)
    if key in memo:
        return memo[key]
    top, rest = rows[ri[0]], ri[1:]
    acc = LaurentSeries.dot(
        [
            (top[c].neg() if k % 2 else top[c], _minor(rows, rest, ci[:k] + ci[k + 1 :], memo))
            for k, c in enumerate(ci)
        ]
    )
    memo[key] = acc
    return acc


class LoopMatrix:
    """An element of GL(n) over Laurent series, optionally flagged SL.

    Values are immutable after construction; the inverse, the pole bound and
    the elementary factorization (``factorization.factor_elementary``) are
    cached write-once, so observable behavior is that of a pure value.
    """

    __slots__ = (
        "ring", "n", "rows", "group", "_det", "_inverse", "_factorization", "_pole_bound", "built_from"
    )

    def __init__(self, rows, group: str = "GL"):
        rows = tuple([tuple(r) for r in rows])
        if not rows or any(len(r) != len(rows) for r in rows):
            raise DomainError("a loop matrix must be square and non-empty")
        if not isinstance(rows[0][0], LaurentSeries):  # read before its ring
            raise DomainError("loop entries must be LaurentSeries")
        ring = rows[0][0].ring
        for r in rows:
            for e in r:
                if not isinstance(e, LaurentSeries):
                    raise DomainError("loop entries must be LaurentSeries")
                if e.ring != ring:
                    raise BackendMismatch("loop entries use mixed backends")
        if group not in ("GL", "SL"):
            raise DomainError(f"unknown group flag {group!r}")
        self.ring = ring
        self.n = len(rows)
        self.rows = rows
        self.group = group
        self._det = None
        self._inverse = {}
        self._factorization = {}
        self._pole_bound = None
        self.built_from = None
        if group == "SL":
            d = self.det()
            if not d.agrees_with(LaurentSeries.one(ring)):
                raise DomainError("SL flag set but determinant is not 1 to precision")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, ring: Ring, n: int, group: str = "GL") -> "LoopMatrix":
        one = LaurentSeries.one(ring)
        zero = LaurentSeries.zero(ring, None)
        return cls(
            [[one if i == j else zero for j in range(n)] for i in range(n)], group
        )

    @classmethod
    def from_rows(cls, ring: Ring, rows, group: str = "GL") -> "LoopMatrix":
        """Coerce a nested list whose entries are LaurentSeries, scalars, or
        (exponent, coefficient) term lists."""

        def coerce(e):
            if isinstance(e, LaurentSeries):
                return e
            if isinstance(e, (list, tuple)):
                return LaurentSeries.from_terms(ring, e)
            return LaurentSeries.constant(ring, e)

        return cls([[coerce(e) for e in r] for r in rows], group)

    # -- linear algebra ----------------------------------------------------

    def entry(self, i: int, j: int) -> LaurentSeries:
        return self.rows[i][j]

    def det(self) -> LaurentSeries:
        if self._det is None:
            full = tuple(range(self.n))
            self._det = _minor(self.rows, full, full, {})
        return self._det

    def mat_mul(self, other: "LoopMatrix") -> "LoopMatrix":
        if self.n != other.n:
            raise DomainError("size mismatch in loop product")
        self.ring.require_same(other.ring)
        cols = list(zip(*other.rows))
        rows = [[LaurentSeries.dot(list(zip(r, c))) for c in cols] for r in self.rows]
        group = "SL" if self.group == other.group == "SL" else "GL"
        return LoopMatrix(rows, group)

    def __matmul__(self, other: "LoopMatrix") -> "LoopMatrix":
        return self.mat_mul(other)

    def transpose(self) -> "LoopMatrix":
        return LoopMatrix(
            [[self.rows[j][i] for j in range(self.n)] for i in range(self.n)],
            self.group,
        )

    def inverse(self, precision: int | None = None) -> "LoopMatrix":
        key = precision if precision is not None else DEFAULT_PRECISION
        if key in self._inverse:
            return self._inverse[key]
        n = self.n
        d = self.det() if n <= 3 else None
        if d is not None and d.is_exact_zero:
            raise SingularToPrecision("determinant is exactly zero")
        if d is not None and not d.is_zero_to_precision:
            inv_det = d.invert(precision)
            full = tuple(range(n))
            without = [full[:k] + full[k + 1 :] for k in full]
            memo = {}

            def cofactor(j, i):  # the signed minor without row j and column i
                if n == 1:
                    return LaurentSeries.one(self.ring)
                m = _minor(self.rows, without[j], without[i], memo)
                return m.neg() if (i + j) % 2 else m

            rows = [[cofactor(j, i).mul(inv_det) for j in full] for i in full]
            if any(not e.is_exact for r in self.rows for e in r):
                # both inverses are certified and neither path always gives
                # the longer window: each entry keeps the longer of the two
                try:
                    other = self._gauss_inverse(precision).rows
                except (InsufficientPrecision, NonUnitLeading, SingularToPrecision):
                    other = rows
                rows = [
                    [max(x, y, key=lambda e: (e.is_exact, e.known_end or 0)) for x, y in zip(rx, ry)]
                    for rx, ry in zip(rows, other)
                ]
            result = LoopMatrix(rows, self.group)
        else:
            # n >= 4, or a determinant zero only on its window: elimination
            # certifies each pivot or raises the matching error
            result = self._gauss_inverse(precision)
        self._inverse[key] = result
        return result

    def _gauss_inverse(self, precision: int | None) -> "LoopMatrix":
        # Gauss-Jordan on [a | I] with valuation-minimizing pivots; a row
        # operation updates only the columns right of the pivot column
        n, one = self.n, LaurentSeries.one(self.ring)
        m = [list(r + e) for r, e in zip(self.rows, LoopMatrix.identity(self.ring, n).rows)]
        for s in range(n):
            i0, _ = _min_valuation_pivot(m, s, precision, rows_only=True)
            m[s], m[i0] = m[i0], m[s]
            top = m[s]
            inv_p = top[s].invert(precision)
            top[s + 1 :] = [e.mul(inv_p) for e in top[s + 1 :]]
            for row in m:
                q = row[s]
                # an entry zero only on its window must still carry its O(t^k)
                if row is top or q.is_exact_zero:
                    continue
                nq = q.neg()
                row[s + 1 :] = [
                    LaurentSeries.dot(((a, one), (nq, b))) for a, b in zip(row[s + 1 :], top[s + 1 :])
                ]
        return LoopMatrix([r[n:] for r in m], self.group)

    # -- loop-group structure ----------------------------------------------

    def _min_entry_valuation(self, precision: int | None) -> int:
        best, end = _least_valuation([e for r in self.rows for e in r])
        if end is not None and end < 0:
            raise InsufficientPrecision(
                "an entry is zero on a window that ends below t^0; "
                "its pole cannot be bounded",
                precision,
            )
        return best[0] if best is not None else 0

    def pole_bound(self, precision: int | None = None) -> int:
        """Least N with every entry of the loop and of its inverse of
        valuation >= -N."""
        if self._pole_bound is None:
            v_here = self._min_entry_valuation(precision)
            v_inv = self.inverse(precision)._min_entry_valuation(precision)
            self._pole_bound = max(0, -v_here, -v_inv)
        return self._pole_bound

    def is_positive(self) -> bool:
        """Membership in the positive loop group: pole-free entries and an
        invertible constant-term matrix, that is, a residue matrix of full
        rank over the residue field."""
        best, end = _least_valuation([e for r in self.rows for e in r])
        if best is not None and best[0] < 0:
            return False
        if end is not None and end < 1:
            raise InsufficientPrecision("entry window too short to decide positivity")
        ring, pivots = self.ring, {}
        field = ring.residue_field
        return all(
            echelon_insert(field, pivots, [ring.residue(e.coefficient(0)) for e in r])
            for r in self.rows
        )

    def map_coefficients(self, fn, ring: Ring) -> "LoopMatrix":
        """fn applied to every known coefficient of every entry, in `ring`."""
        return self.map_series(lambda e: e.map_coefficients(fn, ring))

    def map_series(self, fn) -> "LoopMatrix":
        """fn, a map of series, applied to every entry."""
        return LoopMatrix([[fn(e) for e in r] for r in self.rows], self.group)

    def agrees_with(self, other: "LoopMatrix") -> bool:
        return self.n == other.n and all(
            a.agrees_with(b) for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __eq__(self, other):
        return (
            isinstance(other, LoopMatrix)
            and self.n == other.n
            and self.group == other.group
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.group, self.rows))

    def __repr__(self):
        body = "; ".join("[" + ", ".join(map(repr, r)) + "]" for r in self.rows)
        return f"LoopMatrix({self.group}, [{body}])"


def _least_valuation(entries):
    """One scan for the valuation questions of certification.

    Returns (best, end).  best is (v, k): v is the least valuation among the
    entries with a known nonzero coefficient and k the index of the first
    entry having it; None when there is no such entry.  end is the least
    window end among the entries that are zero on their window, None when
    there is none; such an entry may hide any valuation >= end.
    """
    best = end = None
    for k, e in enumerate(entries):
        if not e.is_zero_to_precision:
            if best is None or e.shift < best[0]:
                best = (e.shift, k)
        elif e.known_end is not None and (end is None or e.known_end < end):
            end = e.known_end
    return best, end


def _min_valuation_pivot(m, s, precision, rows_only=False):
    """Position (i, j) of the minimal-valuation entry of m[s:][s:] among those
    with a unit leading coefficient (over a field, all known nonzero), ties to
    the smallest row then column.  Raises when truncation hides the answer."""
    cols = [s] if rows_only else range(s, len(m))
    cells = [(i, j) for i in range(s, len(m)) for j in cols]
    cand = [(i, j) for i, j in cells if m[i][j].is_zero_to_precision or m[i][j].has_unit_lead()]
    best, end = _least_valuation([m[i][j] for i, j in cand])
    if best is None:
        if len(cand) < len(cells):
            raise NonUnitLeading("leading coefficient is not a unit")
        raise SingularToPrecision(
            "no pivot: the remaining block vanishes on its known windows"
        )
    if end is not None and end <= best[0]:
        raise InsufficientPrecision(
            "an entry that is zero to its window could still beat the pivot",
            precision,
        )
    return cand[best[1]]


# ---------------------------------------------------------------------------
# module-level operation names


def mat_mul(a: LoopMatrix, b: LoopMatrix) -> LoopMatrix:
    return a.mat_mul(b)


def mat_inverse(a: LoopMatrix, precision: int | None = None) -> LoopMatrix:
    return a.inverse(precision)


def pole_bound(a: LoopMatrix, precision: int | None = None) -> int:
    return a.pole_bound(precision)


def is_positive(a: LoopMatrix) -> bool:
    return a.is_positive()


def transpose_inverse(a: LoopMatrix, precision: int | None = None) -> LoopMatrix:
    return a.inverse(precision).transpose()


def monomial_loop(ring: Ring, exponents, group: str = "GL") -> LoopMatrix:
    """The diagonal loop diag(t^e1, ..., t^en)."""
    exponents = [int(e) for e in exponents]
    n = len(exponents)
    zero = LaurentSeries.zero(ring, None)
    return LoopMatrix(
        [
            [LaurentSeries.t_power(ring, exponents[i]) if i == j else zero for j in range(n)]
            for i in range(n)
        ],
        group,
    )


def elementary_loop(ring: Ring, n: int, i: int, j: int, param: LaurentSeries) -> LoopMatrix:
    """The transvection I + param * e_ij (0-based positions, i != j)."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise DomainError("elementary position must be off-diagonal")
    rows = [list(r) for r in LoopMatrix.identity(ring, n).rows]
    rows[i][j] = param
    return LoopMatrix(rows, "SL" if n == 2 else "GL")


def random_positive(n: int, seed: int, ring: Ring | None = None) -> LoopMatrix:
    """Deterministic random element of the positive loop group: an invertible
    constant matrix (unit triangular product) plus random t and t^2 terms."""
    ring = ring or QQ
    # seed from a string: deterministic across processes, unlike tuple hashes
    rng = random.Random(f"positive:{n}:{seed}")
    lower = [[ring.one if i == j else (ring.random(rng) if i > j else ring.zero) for j in range(n)] for i in range(n)]
    upper = [[ring.random_unit(rng) if i == j else (ring.random(rng) if i < j else ring.zero) for j in range(n)] for i in range(n)]
    const = [
        [
            _scalar_dot(ring, lower[i], [upper[k][j] for k in range(n)])
            for j in range(n)
        ]
        for i in range(n)
    ]

    def entry(c):
        return LaurentSeries.from_terms(ring, [(0, c), (1, ring.random(rng)), (2, ring.random(rng))])

    return LoopMatrix([[entry(c) for c in r] for r in const])


def _scalar_dot(ring, xs, ys):
    acc = ring.zero
    for x, y in zip(xs, ys):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def random_loop(n: int, pole: int, seed: int, ring: Ring | None = None) -> LoopMatrix:
    """Deterministic random loop built as positive * t^lam * positive with
    |lam_i| <= pole; the dominant sort of lam is recorded on ``built_from``."""
    ring = ring or QQ
    rng = random.Random(f"loop:{n}:{pole}:{seed}")
    lam = tuple(sorted((rng.randint(-pole, pole) for _ in range(n)), reverse=True))
    left = random_positive(n, rng.randrange(2**30), ring)
    right = random_positive(n, rng.randrange(2**30), ring)
    scaled = LoopMatrix([[e.shifted(k) for e, k in zip(r, lam)] for r in left.rows])
    out = scaled.mat_mul(right)
    out.built_from = lam
    return out
