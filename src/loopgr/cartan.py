"""Cartan stratification of matrix loops over a field backend.

Every invertible matrix over k((t)) factors as u * t^lam * v with u, v in the
positive loop group and lam a dominant (non-increasing) integer tuple, the
elementary divisor exponents over the discrete valuation ring k[[t]].  The
tuple lam is a complete invariant of the double coset of the loop, the
stratum; its coarse class adds the transpose-inverse symmetry, and its
multiplicity pattern names the associated parabolic type.

The reduction pivots on an entry of minimal valuation, ties broken by the
smallest row then column index, and divides out unit parts exactly when the
entries permit.  Step s writes u's column s and v's row s once, from the pivot
cross of step s; nothing is mirrored on u or v.  Every row and column
update x - q*y is one ``LaurentSeries.dot``.

The pivots are the certificate.  Each pivot is an entry of least valuation in
the remaining block with a unit lead, and no entry that is zero only on its
window could hide a smaller valuation (``loops._min_valuation_pivot``).  The
row and column operations are unimodular over k[[t]], and every updated entry
carries the window its ``dot`` certifies, so the remaining blocks of the true
loop agree with the computed ones on those windows and the pivot valuations
are its elementary divisors.  u and v are read off the pivot crosses, so
a = u * t^lam * v holds by construction, on the windows of those entries; no
product u * t^lam * v is formed to check it.  The same pivots make u and v
positive: u is a row permutation of a lower triangular matrix whose diagonal
holds the unit parts of the pivots and whose other entries lie in k[[t]], and
v is one with 1 on its diagonal.  ``_certify`` still decides positivity on
the residue matrices; it cannot fail, and stays only while a benchmark test
counts the scalar ring operations it makes (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InsufficientPrecision
from .loops import LoopMatrix, _min_valuation_pivot
from .series import LaurentSeries


@dataclass(frozen=True)
class Cocharacter:
    """A dominant integer cotuple: the exponents of a diagonal monomial loop,
    listed in non-increasing order."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple([int(e) for e in self.entries])
        if any(entries[i] < entries[i + 1] for i in range(len(entries) - 1)):
            raise DomainError(f"cocharacter entries must be non-increasing: {entries}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def dominant(cls, values) -> "Cocharacter":
        return cls(tuple(sorted((int(v) for v in values), reverse=True)))

    def dual(self) -> "Cocharacter":
        """Image under transpose-inverse: negate and re-sort."""
        return Cocharacter(tuple(-e for e in reversed(self.entries)))

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def degree(self) -> int:
        return sum(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class CoarseStratum:
    """A stratum up to the transpose-inverse symmetry: the set {lam, dual},
    stored sorted lexicographically descending."""

    orbit: tuple[Cocharacter, ...]

    @classmethod
    def of(cls, lam: Cocharacter) -> "CoarseStratum":
        members = {lam, lam.dual()}
        return cls(tuple(sorted(members, key=lambda c: c.entries, reverse=True)))

    def __contains__(self, lam: Cocharacter) -> bool:
        return lam in self.orbit

    def representative(self) -> Cocharacter:
        """The lexicographically largest member."""
        return self.orbit[0]


@dataclass(frozen=True)
class ParabolicType:
    """The composition of n recording multiplicities of a cocharacter's
    distinct values, in order.  A single block means the cocharacter is
    constant, so it stabilizes no proper parabolic."""

    blocks: tuple[int, ...]

    @property
    def is_proper(self) -> bool:
        return len(self.blocks) > 1

    @property
    def rank(self) -> int:
        return sum(self.blocks)


@dataclass(frozen=True)
class CartanFactorization:
    """A certified factorization a = left * t^lam * right with positive
    left and right."""

    left: LoopMatrix
    cocharacter: Cocharacter
    right: LoopMatrix

    def product(self) -> LoopMatrix:
        """left * t^lam * right: column j of left shifted by lam_j, then one
        loop product."""
        lam = self.cocharacter.entries
        scaled = LoopMatrix([[e.shifted(k) for e, k in zip(r, lam)] for r in self.left.rows])
        return scaled.mat_mul(self.right)


def smith_normal_form(a: LoopMatrix, precision: int | None = None) -> CartanFactorization:
    """Diagonalize a loop over k[[t]] by unimodular row and column operations.

    Returns left, lam, right with a = left * t^lam * right, lam dominant.
    The pivots certify the answer: each is an entry of least valuation in
    the remaining block, no window could hide a smaller one, and left and
    right are read off the pivot crosses, so lam is the true stratum, left
    and right are positive, and no reconstruction is checked.  Raises
    InsufficientPrecision when a pivot cannot be certified; the error
    carries a suggested retry precision.
    """
    ring = a.ring
    if not ring.is_field:
        raise DomainError(
            "Cartan factorization needs a field backend; reduce Artinian data first"
        )
    n = a.n
    m = [list(r) for r in a.rows]
    # a = U m V; step s writes only U's column s and V's row s, the pivot cross
    zero, one = LaurentSeries.zero(ring), LaurentSeries.one(ring)
    u, v = [[zero] * n for _ in range(n)], [[zero] * n for _ in range(n)]
    rows, cols = list(range(n)), list(range(n))  # input row and column of each position of m
    divisors = []
    for s in range(n):
        i0, j0 = _min_valuation_pivot(m, s, precision)
        m[s], m[i0] = m[i0], m[s]
        rows[s], rows[i0] = rows[i0], rows[s]
        if j0 != s:
            for r in m:
                r[s], r[j0] = r[j0], r[s]
            cols[s], cols[j0] = cols[j0], cols[s]
        val = m[s][s].shift
        u[rows[s]][s] = w = m[s][s].shifted(-val)
        # scale the pivot row by the inverse unit part; exact when monomial
        w_inv = w.invert(precision)
        # rows <= s and columns < s are dead; column ops below read column s
        m[s][s:] = [e.mul(w_inv) for e in m[s][s:]]
        for i in range(s + 1, n):
            e = m[i][s]
            # an entry zero only on its window must still carry its O(t^k)
            if e.is_exact_zero:
                continue
            q = u[rows[i]][s] = e.shifted(-val)  # in k[[t]]: the pivot valuation is minimal
            nq = q.neg()
            m[i][s:] = [LaurentSeries.dot(((x, one), (nq, y))) for x, y in zip(m[i][s:], m[s][s:])]
        v[s][cols[s]] = one
        for j in range(s + 1, n):
            e = m[s][j]
            if e.is_exact_zero:
                continue
            q = v[s][cols[j]] = e.shifted(-val)
            nq = q.neg()
            # also a row whose column-s entry is an O(t^k): its window carries on
            for row in m[s + 1 :]:
                row[j] = LaurentSeries.dot(((row[j], one), (row[s], nq)))
        divisors.append(val)
    # the divisors come out ascending; reversing the order of the columns of
    # u and of the rows of v makes lam dominant
    fact = CartanFactorization(
        LoopMatrix([r[::-1] for r in u]),
        Cocharacter(tuple(reversed(divisors))),
        LoopMatrix(v[::-1]),
    )
    _certify(fact, precision)
    return fact


def _certify(fact, precision):
    if not (fact.left.is_positive() and fact.right.is_positive()):
        raise InsufficientPrecision(
            "reduction produced non-positive transforms; refine the input windows",
            precision,
        )


def stratum(a: LoopMatrix, precision: int | None = None) -> Cocharacter:
    """The dominant cocharacter of the double coset containing the loop."""
    return smith_normal_form(a, precision).cocharacter


def coarse_stratum(a: LoopMatrix, precision: int | None = None) -> CoarseStratum:
    """The stratum up to transpose-inverse."""
    return CoarseStratum.of(stratum(a, precision))


def parabolic_type(lam: Cocharacter) -> ParabolicType:
    """Multiplicities of the distinct values of a dominant cocharacter."""
    blocks = []
    for e in lam.entries:
        if blocks and e == blocks[-1][0]:
            blocks[-1][1] += 1
        else:
            blocks.append([e, 1])
    return ParabolicType(tuple(b[1] for b in blocks))
