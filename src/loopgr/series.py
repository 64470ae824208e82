"""Truncated formal power/Laurent series and exact rational functions.

The central object is :class:`LaurentSeries`.  A value is stored as a shift
(the exponent of the first listed coefficient), a tuple of exact backend
coefficients, and the end of the *known window*: every coefficient at an
exponent below ``known_end`` is known exactly, everything at or above it is
unknown.  ``known_end is None`` means the series terminates, i.e. it is an
exact Laurent polynomial.  Operations report coefficients only on the window
that is provably correct given the input windows; exactness is preserved
whenever the operation is exact (sums, products, monomial inversion, exact
polynomial division).

Rational functions are kept as exact numerator/denominator pairs and expanded
lazily, so finitely presented inputs never lose information before an
expansion is requested.
"""

from __future__ import annotations

from .errors import (
    DEFAULT_PRECISION,
    DomainError,
    InsufficientPrecision,
    NonUnitLeading,
    ZeroToPrecision,
)
from .rings import Ring, signed_sum


def _min_end(*ends):
    """Minimum of window ends where None stands for +infinity."""
    finite = [e for e in ends if e is not None]
    return min(finite) if finite else None


# ---------------------------------------------------------------------------
# polynomials: tuples of backend elements, index = exponent, last coeff != 0

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
    return poly_trim(ring, ring.mul_vec(a, b))


def poly_scale(ring, c, a):
    if ring.is_zero(c):
        return ()
    return poly_trim(ring, [ring.mul(c, x) for x in a])


def poly_divmod(ring, a, b):
    """Quotient and remainder of a by b; the leading coefficient of b must
    be a unit (always true over a field)."""
    if not b:
        raise DomainError("polynomial division by zero")
    lead_inv = ring.inv(b[-1])
    rem = list(a)
    if len(a) < len(b):
        return (), poly_trim(ring, rem)
    q = [ring.zero] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = ring.mul(rem[k + len(b) - 1], lead_inv)
        if ring.is_zero(c):
            continue
        q[k] = c
        for j, bj in enumerate(b):
            rem[k + j] = ring.sub(rem[k + j], ring.mul(c, bj))
    return poly_trim(ring, q), poly_trim(ring, rem)


def poly_gcd(ring, a, b):
    """Monic gcd over a field backend."""
    while b:
        _, r = poly_divmod(ring, a, b)
        a, b = b, r
    if a:
        a = poly_scale(ring, ring.inv(a[-1]), a)
    return a


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
    """The polynomial p(t + r), computed exactly by Horner recursion."""
    res: tuple = ()
    lin = poly_trim(ring, (r, ring.one))
    for c in reversed(p):
        res = poly_add(ring, poly_mul(ring, res, lin), poly_trim(ring, (c,)))
    return res


class LaurentSeries:
    """A Laurent series over an exact backend with a tracked known window.

    Canonical form: ``coeffs`` is empty or starts and ends with a nonzero
    coefficient; coefficients between the listed ones are zero.  When
    ``known_end`` is an int, the series equals the listed part plus
    O(t^known_end); when it is None the listed part is the whole series.
    """

    __slots__ = ("ring", "shift", "coeffs", "known_end")

    def __init__(self, ring, shift, coeffs, known_end):
        self.ring = ring
        self.shift = shift
        self.coeffs = coeffs
        self.known_end = known_end

    @classmethod
    def make(cls, ring: Ring, shift: int, coeffs, known_end: int | None) -> "LaurentSeries":
        """Canonicalize ring elements: clip to the window, trim zeros on both ends."""
        cs = coeffs
        if known_end is not None and shift + len(cs) > known_end:
            cs = cs[: max(0, known_end - shift)]
        lo = 0
        while lo < len(cs) and ring.is_zero(cs[lo]):
            lo += 1
        hi = len(cs)
        while hi > lo and ring.is_zero(cs[hi - 1]):
            hi -= 1
        cs = cs[lo:hi]
        if not cs:
            return cls(ring, known_end if known_end is not None else 0, (), known_end)
        return cls(ring, shift + lo, tuple(cs), known_end)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, ring, terms, known_end=None) -> "LaurentSeries":
        """Build from (exponent, coefficient) pairs; omitted precision means
        an exact Laurent polynomial."""
        terms = [(int(e), ring.of(c)) for e, c in terms]
        if not terms:
            return cls.make(ring, 0, (), known_end)
        lo = min(e for e, _ in terms)
        hi = max(e for e, _ in terms)
        cs = [ring.zero] * (hi - lo + 1)
        for e, c in terms:
            cs[e - lo] = ring.add(cs[e - lo], c)
        return cls.make(ring, lo, cs, known_end)

    @classmethod
    def zero(cls, ring, known_end=None) -> "LaurentSeries":
        return cls.make(ring, 0, (), known_end)

    @classmethod
    def one(cls, ring) -> "LaurentSeries":
        return cls.make(ring, 0, (ring.one,), None)

    @classmethod
    def constant(cls, ring, c) -> "LaurentSeries":
        return cls.make(ring, 0, (ring.of(c),), None)

    @classmethod
    def t_power(cls, ring, k: int) -> "LaurentSeries":
        return cls.make(ring, k, (ring.one,), None)

    # -- basic state -------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.known_end is None

    @property
    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.known_end is None

    @property
    def is_zero_to_precision(self) -> bool:
        return not self.coeffs

    @property
    def valuation(self) -> int | None:
        """Least exponent carrying a nonzero coefficient, None if unknown
        (zero on the whole known window)."""
        return self.shift if self.coeffs else None

    def valuation_lower_bound(self) -> int | None:
        """Certified lower bound for the valuation; None means +infinity
        (the series is exactly zero)."""
        if self.coeffs:
            return self.shift
        return self.known_end

    def coefficient(self, e: int):
        """The coefficient at exponent e; raises if e is outside the
        known window."""
        if self.known_end is not None and e >= self.known_end:
            window = self.known_end - self.shift if self.coeffs else 0
            raise InsufficientPrecision(
                f"coefficient at t^{e} is beyond the known window (< t^{self.known_end})",
                max(window, DEFAULT_PRECISION),
            )
        i = e - self.shift
        if self.coeffs and 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def window_length(self) -> int | None:
        """Length of the known window measured from the valuation."""
        if self.known_end is None or not self.coeffs:
            return None
        return self.known_end - self.shift

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        self.ring.require_same(other.ring)
        ring = self.ring
        end = _min_end(self.known_end, other.known_end)
        if not self.coeffs and not other.coeffs:
            return LaurentSeries.make(ring, 0, (), end)
        if not self.coeffs:
            return LaurentSeries.make(ring, other.shift, other.coeffs, end)
        if not other.coeffs:
            return LaurentSeries.make(ring, self.shift, self.coeffs, end)
        lo = min(self.shift, other.shift)
        hi = max(self.shift + len(self.coeffs), other.shift + len(other.coeffs))
        out = [ring.zero] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.shift - lo + i] = c
        for i, c in enumerate(other.coeffs):
            j = other.shift - lo + i
            out[j] = ring.add(out[j], c)
        return LaurentSeries.make(ring, lo, out, end)

    def neg(self) -> "LaurentSeries":
        return LaurentSeries(
            self.ring, self.shift, tuple(self.ring.neg(c) for c in self.coeffs), self.known_end
        )

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
        self.ring.require_same(other.ring)
        ring = self.ring
        if self.is_exact_zero or other.is_exact_zero:
            return LaurentSeries.make(ring, 0, (), None)
        end = self.product_end(other)
        if not self.coeffs or not other.coeffs:
            return LaurentSeries.make(ring, 0, (), end)
        shift = self.shift + other.shift
        limit = None if end is None else end - shift
        return LaurentSeries.make(ring, shift, ring.mul_vec(self.coeffs, other.coeffs, limit), end)

    @staticmethod
    def dot(pairs) -> "LaurentSeries":
        """The sum of a * b over a non-empty sequence of (a, b) pairs, value
        and window as the left fold of mul and add gives it: the window ends
        at the least product_end of the pairs, and a pair with an exactly
        zero operand adds nothing, not even a window."""
        ring = pairs[0][0].ring
        end, terms = None, []
        for a, b in pairs:
            ring.require_same(a.ring)
            ring.require_same(b.ring)
            if a.is_exact_zero or b.is_exact_zero:
                continue
            end = _min_end(end, a.product_end(b))
            if a.coeffs and b.coeffs:
                terms.append((a.shift + b.shift, a.coeffs, b.coeffs))
        if not terms:
            return LaurentSeries.make(ring, 0, (), end)
        lo = min(s for s, _, _ in terms)
        hi = max(s + len(a) + len(b) - 1 for s, a, b in terms)
        if end is not None:
            hi = max(min(hi, end), lo)
        vec = ring.dot_vec([(s - lo, a, b) for s, a, b in terms], hi - lo)
        return LaurentSeries.make(ring, lo, vec, end)

    def shifted(self, k: int) -> "LaurentSeries":
        """Multiplication by t^k, always exact."""
        return LaurentSeries(
            self.ring,
            self.shift + k,
            self.coeffs,
            None if self.known_end is None else self.known_end + k,
        )

    def invert(self, precision: int | None = None) -> "LaurentSeries":
        """Reciprocal.  The window length of the input is preserved; an exact
        input yields an exact monomial inverse or a series truncated at
        `precision` (default 16; at least 1)."""
        if precision is not None and precision < 1:
            raise DomainError(f"working precision must be at least 1, got {precision}")
        ring = self.ring
        if not self.coeffs:
            raise ZeroToPrecision(
                "cannot invert a series that is zero on its known window"
            )
        if not ring.is_unit(self.coeffs[0]):
            raise NonUnitLeading("leading coefficient is not a unit")
        v = self.shift
        if len(self.coeffs) == 1 and self.is_exact:
            return LaurentSeries.make(ring, -v, (ring.inv(self.coeffs[0]),), None)
        length = self.window_length()
        if length is None:
            length = precision if precision is not None else DEFAULT_PRECISION
        return LaurentSeries.make(ring, -v, ring.inv_vec(self.coeffs, length), -v + length)

    def div(self, other: "LaurentSeries", precision: int | None = None) -> "LaurentSeries":
        """self / other.  When both operands are exact and the division is
        exact in the Laurent polynomial ring, the quotient stays exact."""
        if self.is_exact and other.is_exact and other.coeffs:
            if self.is_exact_zero:
                return LaurentSeries.make(self.ring, 0, (), None)
            if self.ring.is_unit(other.coeffs[-1]):
                q, r = poly_divmod(self.ring, self.coeffs, other.coeffs)
                if not r:
                    return LaurentSeries.make(
                        self.ring, self.shift - other.shift, q, None
                    )
        return self.mul(other.invert(precision))

    def truncated(self, known_end: int) -> "LaurentSeries":
        """Forget coefficients at exponents >= known_end."""
        end = _min_end(self.known_end, known_end)
        return LaurentSeries.make(self.ring, self.shift, self.coeffs, end)

    def map_coefficients(self, fn, ring: Ring) -> "LaurentSeries":
        """Apply fn to every known coefficient, landing in `ring` (used for
        constant lifts and residue reductions)."""
        return LaurentSeries.make(
            ring, self.shift, [ring.of(fn(c)) for c in self.coeffs], self.known_end
        )

    # -- comparisons -------------------------------------------------------

    def agrees_with(self, other: "LaurentSeries") -> bool:
        """Equality of all coefficients on the overlap of the known windows:
        the difference, clipped to the smaller window, has no nonzero term."""
        return not self.sub(other).coeffs

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.ring == other.ring
            and self.shift == other.shift
            and self.known_end == other.known_end
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.shift, self.coeffs, self.known_end))

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


# ---------------------------------------------------------------------------


class RationalFunction:
    """An exact rational function num/den in t over a field backend.

    Canonical form: gcd(num, den) = 1 and den monic, so equality is
    structural.  Expansion around any center, and around infinity in the
    coordinate s = 1/t, produces Laurent series with certified windows.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: Ring, num, den):
        if not ring.is_field:
            raise DomainError("rational functions need a field backend")
        num = poly_trim(ring, [ring.of(c) for c in num])
        den = poly_trim(ring, [ring.of(c) for c in den])
        if not den:
            raise DomainError("zero denominator")
        # gcd(0, den) is den made monic, so zero gets the denominator 1
        g = poly_gcd(ring, num, den)
        if len(g) > 1:
            num, _ = poly_divmod(ring, num, g)
            den, _ = poly_divmod(ring, den, g)
        lead_inv = ring.inv(den[-1])
        self.ring = ring
        self.num = poly_scale(ring, lead_inv, num)
        self.den = poly_scale(ring, lead_inv, den)

    @classmethod
    def from_terms(cls, ring, num_terms, den_terms=((0, 1),)) -> "RationalFunction":
        def build(terms):
            terms = [(int(e), ring.of(c)) for e, c in terms]
            if any(e < 0 for e, _ in terms):
                raise DomainError("polynomial terms need non-negative exponents")
            size = max((e for e, _ in terms), default=-1) + 1
            cs = [ring.zero] * size
            for e, c in terms:
                cs[e] = ring.add(cs[e], c)
            return cs

        return cls(ring, build(num_terms), build(den_terms))

    @classmethod
    def constant(cls, ring, c) -> "RationalFunction":
        return cls(ring, (ring.of(c),), (ring.one,))

    @classmethod
    def t(cls, ring) -> "RationalFunction":
        return cls(ring, (ring.zero, ring.one), (ring.one,))

    @property
    def is_zero(self) -> bool:
        return not self.num

    def add(self, other: "RationalFunction") -> "RationalFunction":
        self.ring.require_same(other.ring)
        r = self.ring
        num = poly_add(
            r,
            poly_mul(r, self.num, other.den),
            poly_mul(r, other.num, self.den),
        )
        return RationalFunction(r, num, poly_mul(r, self.den, other.den))

    def neg(self) -> "RationalFunction":
        return RationalFunction(self.ring, poly_neg(self.ring, self.num), self.den)

    def sub(self, other: "RationalFunction") -> "RationalFunction":
        return self.add(other.neg())

    def mul(self, other: "RationalFunction") -> "RationalFunction":
        self.ring.require_same(other.ring)
        r = self.ring
        return RationalFunction(
            r, poly_mul(r, self.num, other.num), poly_mul(r, self.den, other.den)
        )

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise DomainError("cannot invert the zero rational function")
        return RationalFunction(self.ring, self.den, self.num)

    def expand_at(self, r, precision: int | None = None) -> LaurentSeries:
        """Laurent expansion of self(t + r) around t = 0.

        A pole of self at a point other than r shifts to a unit; a pole at r
        itself becomes a genuine Laurent pole.  The result window has length
        at least `precision` from its valuation (exact when the division
        terminates)."""
        ring = self.ring
        r = ring.of(r)
        nu = LaurentSeries.make(ring, 0, poly_shift_var(ring, self.num, r), None)
        de = LaurentSeries.make(ring, 0, poly_shift_var(ring, self.den, r), None)
        return nu.div(de, precision)

    def pole_order_at(self, r) -> int:
        """Order of the pole at t = r (0 when regular there)."""
        return poly_strip_root(self.ring, self.den, self.ring.of(r))[0]

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
        def poly_str(p):
            return repr(LaurentSeries.make(self.ring, 0, p, None))

        if len(self.den) == 1:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"


def expand_shift(f: RationalFunction, r, precision: int | None = None) -> LaurentSeries:
    """Expand the rational function f(t + r) as a Laurent series at 0."""
    return f.expand_at(r, precision)
