"""Truncated formal power/Laurent series and exact rational functions.

The central object is :class:`LaurentSeries`.  A value is stored as a shift
(the exponent of the first listed coefficient), the backend's packed vector
of the listed coefficients, and the end of the *known window*: every
coefficient at an exponent below ``known_end`` is known exactly, everything
at or above it is unknown.  ``known_end is None`` means the series
terminates, i.e. it is an exact Laurent polynomial.  Operations report coefficients only on the window
that is provably correct given the input windows; exactness is preserved
whenever the operation is exact (sums, products, monomial inversion, exact
polynomial division).

Exact polynomials have one form: an exact series of valuation >= 0, on the
same packed kernels as every other series; only the long division
``_divmod`` works on coefficient lists.  A rational function keeps its
numerator and denominator in that form and is expanded lazily, so finitely
presented inputs never lose information before an expansion is requested.
"""

from __future__ import annotations

from .errors import (
    DEFAULT_PRECISION,
    DomainError,
    InsufficientPrecision,
    NonUnitLeading,
    ZeroToPrecision,
)
from .rings import Ring, _artinian, signed_sum


def _min_end(*ends):
    """Minimum of window ends where None stands for +infinity."""
    finite = [e for e in ends if e is not None]
    return min(finite) if finite else None


def _require_working_precision(precision):
    """A working precision is None (the default) or at least 1."""
    if precision is not None and precision < 1:
        raise DomainError(f"working precision must be at least 1, got {precision}")


def _divmod(ring, a, b):
    """Quotient and remainder of the coefficient lists a by b, lowest degree
    first; b's top coefficient must be a unit.  The remainder has no zero at
    the top, and a quotient step subtracts nothing at the top of b, where
    the difference is zero by construction."""
    add, mul, rem, n = ring.add, ring.mul, list(a), len(b) - 1
    q = [ring.zero] * max(len(a) - n, 0)
    lead_inv = ring.inv(b[-1]) if q else None
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = mul(rem[k + n], lead_inv)
        if not ring.is_zero(c):
            c = ring.neg(c)
            for j in range(n):
                rem[k + j] = add(rem[k + j], mul(c, b[j]))
    del rem[n:]
    while rem and ring.is_zero(rem[-1]):
        rem.pop()
    return q, rem


class LaurentSeries:
    """A Laurent series over an exact backend with a tracked known window.

    Canonical form: ``vec``, the backend's packed vector (``loopgr.rings``),
    has no zero coefficient at either end, and a series with none has shift
    ``known_end`` (0 when exact).  When ``known_end`` is an int, the series
    equals the listed part plus O(t^known_end); when it is None the listed
    part is the whole series.  ``coeffs`` builds the listed scalars anew on
    each read.
    """

    __slots__ = ("ring", "shift", "vec", "known_end")

    def __init__(self, ring, shift, vec, known_end):
        self.ring = ring
        self.shift = shift
        self.vec = vec
        self.known_end = known_end

    @classmethod
    def make(cls, ring: Ring, shift: int, coeffs, known_end: int | None) -> "LaurentSeries":
        """Pack ring elements: clip to the window, trim zeros on both ends."""
        if known_end is not None and shift + len(coeffs) > known_end:
            coeffs = coeffs[: max(0, known_end - shift)]
        return _series(ring, shift, ring.close(*ring.numerators(coeffs)), known_end)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, ring, terms, known_end=None) -> "LaurentSeries":
        """Build from (exponent, coefficient) pairs; omitted precision means
        an exact Laurent polynomial."""
        terms = [(int(e), ring.of(c)) for e, c in terms]
        if not terms:
            return cls.zero(ring, known_end)
        at = {}  # a coefficient is placed as it is, and added only to a repeated exponent
        for e, c in terms:
            at[e] = ring.add(at[e], c) if e in at else c
        lo, hi = min(at), max(at)
        return cls.make(ring, lo, [at.get(e, ring.zero) for e in range(lo, hi + 1)], known_end)

    @classmethod
    def zero(cls, ring, known_end=None) -> "LaurentSeries":
        return cls(ring, known_end or 0, ring.zero_vec, known_end)

    @classmethod
    def one(cls, ring) -> "LaurentSeries":
        return cls(ring, 0, ring.one_vec, None)

    @classmethod
    def constant(cls, ring, c) -> "LaurentSeries":
        return cls.make(ring, 0, (ring.of(c),), None)

    @classmethod
    def t_power(cls, ring, k: int) -> "LaurentSeries":
        return cls(ring, k, ring.one_vec, None)

    # -- basic state: read from the packed vector, never from coeffs -------

    @property
    def coeffs(self) -> tuple:
        return tuple(self.ring.values(*self.vec))

    @property
    def is_exact(self) -> bool:
        return self.known_end is None

    @property
    def is_exact_zero(self) -> bool:
        return self.known_end is None and not self.vec[1]

    @property
    def is_zero_to_precision(self) -> bool:
        return not self.vec[1]

    def has_unit_lead(self) -> bool:
        """A first listed coefficient exists, and its residue is nonzero."""
        ints = self.vec[1]
        return bool(ints) and bool(ints[0])

    @property
    def valuation(self) -> int | None:
        """Least exponent carrying a nonzero coefficient, None if unknown
        (zero on the whole known window)."""
        return None if self.is_zero_to_precision else self.shift

    @property
    def degree(self) -> int | None:
        """Greatest exponent with a listed coefficient, None if none."""
        ints = self.vec[1]
        return self.shift + len(ints) // self.ring.width - 1 if ints else None

    def valuation_lower_bound(self) -> int | None:
        """Certified lower bound for the valuation; None means +infinity
        (the series is exactly zero)."""
        return self.known_end if self.is_zero_to_precision else self.shift

    def coefficient(self, e: int):
        """The coefficient at exponent e; raises if e is outside the
        known window."""
        if self.known_end is not None and e >= self.known_end:
            window = 0 if self.is_zero_to_precision else self.known_end - self.shift
            raise InsufficientPrecision(
                f"coefficient at t^{e} is beyond the known window (< t^{self.known_end})",
                max(window, DEFAULT_PRECISION),
            )
        i = e - self.shift
        return self.ring.at(self.vec, i) if i >= 0 else self.ring.zero

    def window_length(self) -> int | None:
        """Length of the known window measured from the valuation."""
        if self.known_end is None or self.is_zero_to_precision:
            return None
        return self.known_end - self.shift

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        one = LaurentSeries.one(self.ring)
        return _dot(((self, one), (other, one)))

    def neg(self) -> "LaurentSeries":
        d, ints = self.vec
        return LaurentSeries(self.ring, self.shift, self.ring.close(-d, ints)[1], self.known_end)

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other.neg())

    def product_end(self, other: "LaurentSeries") -> int | None:
        """End of the known window of self * other: each operand's window
        end plus the other operand's valuation lower bound.  None means the
        product is exact, as it is when an operand is exactly zero."""
        va = self.valuation_lower_bound()
        vb = other.valuation_lower_bound()
        if va is None or vb is None:
            return None
        return _min_end(
            None if self.known_end is None else self.known_end + vb,
            None if other.known_end is None else other.known_end + va,
        )

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        return _dot(((self, other),))

    @staticmethod
    def dot(pairs) -> "LaurentSeries":
        """The sum of a * b over a non-empty sequence of (a, b) pairs, value
        and window as the left fold of mul and add gives it: the window ends
        at the least product_end of the pairs, and a pair with an exactly
        zero operand adds nothing, not even a window.  mul and add run this
        body too, as _dot."""
        ring = pairs[0][0].ring
        width = ring.width
        end, terms, lo, hi = None, [], None, None
        for a, b in pairs:
            if a.ring is not ring or b.ring is not ring:  # equal backends may be two objects
                ring.require_same(a.ring), ring.require_same(b.ring)
            na, nb = a.vec[1], b.vec[1]
            # product_end, inline: va and vb are the valuation lower bounds
            va, vb = a.shift if na else a.known_end, b.shift if nb else b.known_end
            if va is None or vb is None:  # an exactly zero operand
                continue
            ea, eb = a.known_end, b.known_end
            end = _min_end(end, None if ea is None else ea + vb, None if eb is None else eb + va)
            if na and nb:
                s, top = a.shift + b.shift, a.shift + b.shift + (len(na) + len(nb)) // width - 1
                terms.append((s, a.vec, b.vec))
                lo, hi = (s, top) if lo is None else (min(lo, s), max(hi, top))
        if not terms:
            return LaurentSeries.zero(ring, end)
        hi = hi if end is None else max(min(hi, end), lo)
        return _series(ring, lo, ring.dot_vec([(s - lo, a, b) for s, a, b in terms], hi - lo), end)

    def shifted(self, k: int) -> "LaurentSeries":
        """Multiplication by t^k, always exact."""
        return _series(
            self.ring,
            self.shift + k,
            (None if self.is_zero_to_precision else 0, self.vec),
            None if self.known_end is None else self.known_end + k,
        )

    def invert(self, precision: int | None = None) -> "LaurentSeries":
        """Reciprocal.  The window length of the input is preserved; an exact
        input yields an exact monomial inverse or a series truncated at
        `precision` (default 16; at least 1)."""
        _require_working_precision(precision)
        ring, ints = self.ring, self.vec[1]
        if not ints:
            raise ZeroToPrecision("cannot invert a series that is zero on its known window")
        if not ints[0]:
            raise NonUnitLeading("leading coefficient is not a unit")
        v = self.shift
        if len(ints) == ring.width and self.is_exact:
            return _series(ring, -v, ring.inv_vec(self.vec, 1), None)
        length = self.window_length()
        if length is None:
            length = precision if precision is not None else DEFAULT_PRECISION
        return _series(ring, -v, ring.inv_vec(self.vec, length), -v + length)

    def div(self, other: "LaurentSeries", precision: int | None = None) -> "LaurentSeries":
        """self / other.  When both operands are exact and the division is
        exact in the Laurent polynomial ring, the quotient stays exact."""
        if self.is_exact and other.is_exact and not other.is_zero_to_precision:
            if self.is_exact_zero:
                return LaurentSeries.zero(self.ring)
            den = other.coeffs
            if self.ring.is_unit(den[-1]):
                q, r = _divmod(self.ring, self.coeffs, den)
                if not r:
                    return LaurentSeries.make(self.ring, self.shift - other.shift, q, None)
        return self.mul(other.invert(precision))

    def truncated(self, known_end: int | None) -> "LaurentSeries":
        """Forget coefficients at exponents >= known_end (None: none).  A
        window that does not shrink returns self: it is already canonical."""
        end = _min_end(self.known_end, known_end)
        if end == self.known_end:
            return self
        d, ints = self.vec
        cut = None if end is None else max(0, end - self.shift) * self.ring.width
        return _series(self.ring, self.shift, self.ring.close(d, ints[:cut]), end)

    def map_coefficients(self, fn, ring: Ring) -> "LaurentSeries":
        """Apply fn to every known coefficient, landing in `ring`."""
        return LaurentSeries.make(ring, self.shift, [ring.of(fn(c)) for c in self.coeffs], self.known_end)

    def lifted(self, ring) -> "LaurentSeries":
        """The constant lift to ring = k[x]/(x^m): map_coefficients(ring.from_base, ring), on
        ints.  The base ints at every m-th place keep both ends and the gcd: it is canonical."""
        _artinian(ring).base.require_same(self.ring)
        d, ints = self.vec
        lift = [0] * (len(ints) * ring.m)
        lift[:: ring.m] = ints
        return LaurentSeries(ring, self.shift, (d, tuple(lift)), self.known_end)

    # -- comparisons -------------------------------------------------------

    def agrees_with(self, other: "LaurentSeries") -> bool:
        """Equality of all coefficients on the overlap of the known windows:
        the difference, clipped to the smaller window, has no nonzero term."""
        return self.sub(other).is_zero_to_precision

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.ring == other.ring
            and self.shift == other.shift
            and self.known_end == other.known_end
            and self.vec == other.vec
        )

    def __hash__(self):
        return hash((self.ring, self.shift, self.vec, self.known_end))

    def __repr__(self):
        """Terms in increasing degree; a coefficient that prints as more than
        one term (over k[x]/(x^m)) is bracketed, its signs left inside."""
        terms = []
        for e, c in enumerate(self.coeffs, self.shift):
            if not self.ring.is_zero(c):
                cs = self.ring.scalar_str(c)
                terms.append((f"({cs})" if " " in cs else cs, e))
        body = signed_sum(terms, "t")
        if self.known_end is None:
            return body
        tail = f"O(t^{self.known_end})"
        return f"{body} + {tail}" if terms else tail


_dot = LaurentSeries.dot


def _series(ring, shift, closed, known_end) -> LaurentSeries:
    """t^shift * vec + O(t^known_end) from close()'s (lo, vec), lo the zero
    coefficients cut at the front (None: all)."""
    lo, vec = closed
    return LaurentSeries(ring, (known_end or 0) if lo is None else shift + lo, vec, known_end)


# ---------------------------------------------------------------------------


class RationalFunction:
    """An exact rational function num/den in t over a field backend.

    num and den are exact series of valuation >= 0, that is polynomials.
    Canonical form: gcd(num, den) = 1 and den monic, so equality is
    structural.  Expansion around any finite center produces a Laurent
    series with a certified window.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: Ring, num: LaurentSeries, den: LaurentSeries):
        if not ring.is_field:
            raise DomainError("rational functions need a field backend")
        for p in (num, den):
            if not isinstance(p, LaurentSeries) or not p.is_exact or p.shift < 0:
                raise DomainError("numerator and denominator must be exact polynomials")
            if p.ring is not ring:  # equal backends may be two objects
                ring.require_same(p.ring)
        if den.is_exact_zero:
            raise DomainError("zero denominator")
        if den.degree:
            # Euclid on coefficient lists, up to a constant remainder: the gcd
            # is then 1.  gcd(0, den) is den, so zero gets the denominator 1
            polys = [[ring.zero] * p.shift + ring.values(*p.vec) for p in (num, den)]
            a, b = polys
            while len(b) > 1:
                a, b = b, _divmod(ring, a, b)[1]
            if not b:  # divide out the gcd a
                num, den = [LaurentSeries.make(ring, 0, _divmod(ring, p, a)[0], None) for p in polys]
        self.ring, (self.num, self.den) = ring, _monic(ring, num, den)

    @classmethod
    def _reduced(cls, ring, num, den) -> "RationalFunction":
        """num/den already in canonical form: no Euclid, no scaling."""
        f = object.__new__(cls)
        f.ring, f.num, f.den = ring, num, den
        return f

    @classmethod
    def from_terms(cls, ring, num_terms, den_terms=((0, 1),)) -> "RationalFunction":
        num_terms, den_terms = list(num_terms), list(den_terms)
        if any(int(e) < 0 for e, _ in num_terms + den_terms):
            raise DomainError("polynomial terms need non-negative exponents")
        return cls(ring, LaurentSeries.from_terms(ring, num_terms), LaurentSeries.from_terms(ring, den_terms))

    @classmethod
    def constant(cls, ring, c) -> "RationalFunction":
        return cls(ring, LaurentSeries.constant(ring, c), LaurentSeries.one(ring))

    @classmethod
    def t(cls, ring) -> "RationalFunction":
        return cls(ring, LaurentSeries.t_power(ring, 1), LaurentSeries.one(ring))

    @property
    def is_zero(self) -> bool:
        return self.num.is_exact_zero

    def add(self, other: "RationalFunction") -> "RationalFunction":
        num = _dot(((self.num, other.den), (other.num, self.den)))
        return RationalFunction(self.ring, num, self.den.mul(other.den))

    def neg(self) -> "RationalFunction":
        return RationalFunction._reduced(self.ring, self.num.neg(), self.den)

    def sub(self, other: "RationalFunction") -> "RationalFunction":
        return self.add(other.neg())

    def mul(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.ring, self.num.mul(other.num), self.den.mul(other.den))

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise DomainError("cannot invert the zero rational function")
        # still in lowest terms: only the new denominator is made monic
        return RationalFunction._reduced(self.ring, *_monic(self.ring, self.den, self.num))

    def expand_at(self, r, precision: int | None = None) -> LaurentSeries:
        """Laurent expansion of self(t + r) around t = 0.

        A pole of self at a point other than r shifts to a unit; a pole at r
        itself becomes a genuine Laurent pole.  The result window has length
        at least `precision` from its valuation (exact when the division
        terminates)."""
        r = self.ring.of(r)
        return _translated(self.num, r).div(_translated(self.den, r), precision)

    def pole_order_at(self, r) -> int:
        """Order of the pole at t = r (0 when regular there)."""
        return _translated(self.den, self.ring.of(r)).valuation

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.ring == other.ring
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.ring, self.num, self.den))

    def __repr__(self):
        if self.den == LaurentSeries.one(self.ring):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _monic(ring, num, den) -> tuple:
    """(num, den) scaled by d over den's top int, packed, so that den is monic."""
    (dn, ns), (d, ds) = num.vec, den.vec
    if ds[-1] == d:
        return num, den
    num = _series(ring, num.shift, ring.close(dn * ds[-1], [c * d for c in ns]), None)
    return num, _series(ring, den.shift, ring.close(d * ds[-1], [c * d for c in ds]), None)


def _translated(p: LaurentSeries, r) -> LaurentSeries:
    """The exact polynomial p(t + r) over a field backend, by Horner's rule
    on the packed ints: with r = rn/rd and p = sum c_k t^k / d of degree K,
    h <- h*(rd*t + rn) + c_k*rd^(K+1-k) from h = 0 and k = K down to 0 ends
    at p(t + r) times d*rd^(K+1).  Over GF(p) every step reduces mod p."""
    if not r:
        return p
    ring, (d, ints) = p.ring, p.vec
    q = ring.characteristic
    rn, rd = (r, 1) if q else r.as_integer_ratio()
    h, scale = [], 1
    for c in reversed([0] * p.shift + list(ints)):
        low, scale = [c * scale] + h, scale * rd  # rd * low[0] is c_k*rd^(K+1-k)
        pairs = zip(h + [0], low)
        h = [(rn * x + rd * y) % q for x, y in pairs] if q else [rn * x + rd * y for x, y in pairs]
    return _series(ring, 0, ring.close(d * scale, h), None)


def expand_shift(f: RationalFunction, r, precision: int | None = None) -> LaurentSeries:
    """Expand the rational function f(t + r) as a Laurent series at 0."""
    return f.expand_at(r, precision)
