"""Exact rational arithmetic: polynomials, generating functions, interpolation,
row reduction.

Everything downstream (order polynomials, structure polynomials, idempotent
coefficients, quasisymmetric realizations) is built on the three containers
here:

* UniPoly    -- dense univariate polynomial over Fraction,
* RationalGF -- quotient of integer polynomials, compared exactly,
* MultiPoly  -- sparse multivariate polynomial with a fixed number of slots,

and the one exact elimination routine (reduce_row, basis_insert) behind
every rank and span computation.

There is no floating point anywhere in this package.

>>> binom_poly(1, 2)(3)
Fraction(6, 1)
>>> gf_coeffs(RationalGF(UniPoly([0, 2]), UniPoly([1, -2, 1])), 4)
[Fraction(0, 1), Fraction(2, 1), Fraction(4, 1), Fraction(6, 1)]
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Sequence

Q = Fraction


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


def format_rational(q) -> str:
    """Serialize a rational as 'p' or 'p/q'."""
    q = as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class UniPoly:
    """Dense univariate polynomial; coeffs[i] multiplies the i-th power.

    Trailing zeros are trimmed, so the zero polynomial has no coefficients
    and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "UniPoly":
        return self + (-other if isinstance(other, UniPoly) else UniPoly((-as_fraction(other),)))

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            return UniPoly(tuple(a * c for a in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """Substitute `inner` for the variable (Horner over polynomials)."""
        acc = UniPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly((c,))
        return acc

    def negate_var(self) -> "UniPoly":
        """p(t) -> p(-t)."""
        return UniPoly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "UniPoly":
        return cls(tuple(Fraction(s) for s in items))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_rational(c))
            elif i == 1:
                parts.append(f"{format_rational(c)}*x")
            else:
                parts.append(f"{format_rational(c)}*x^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"


def binom_poly(shift: int, degree: int) -> UniPoly:
    """The polynomial binomial(x + shift, degree) in x.

    >>> binom_poly(3, 4)(2)
    Fraction(5, 1)
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out = UniPoly.one()
    for t in range(degree):
        out = out * UniPoly((shift - t, 1))
    return out * Fraction(1, factorial(degree))


def interpolate(points: Sequence[tuple]) -> UniPoly:
    """Unique polynomial of degree < len(points) through the given points.

    Newton's divided differences with exact rationals; the nodes must be
    pairwise distinct.
    """
    xs = [as_fraction(p[0]) for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    ys = [as_fraction(p[1]) for p in points]
    m = len(points)
    # divided-difference table, in place
    dd = list(ys)
    for level in range(1, m):
        for i in range(m - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    poly = UniPoly()
    basis = UniPoly.one()
    for i in range(m):
        poly = poly + basis * dd[i]
        basis = basis * UniPoly((-xs[i], 1))
    return poly


def reduce_row(row: dict, basis: dict) -> dict:
    """What is left of a sparse row (key -> Fraction) after elimination
    against an echelon basis (pivot key -> row with 1 at the pivot, which
    is the row's smallest key).  The input row is not modified."""
    row = dict(row)
    while row:
        pivot = min(row)
        hit = basis.get(pivot)
        if hit is None:
            return row
        factor = row[pivot]
        for p, c in hit.items():
            v = row.get(p, Fraction(0)) - factor * c
            if v:
                row[p] = v
            else:
                row.pop(p, None)
    return row


def basis_insert(row: dict, basis: dict) -> bool:
    """Add a sparse row to an echelon basis unless it lies in the span
    already; True when the basis grew."""
    row = reduce_row(row, basis)
    if not row:
        return False
    pivot = min(row)
    lead = row[pivot]
    basis[pivot] = {p: c / lead for p, c in row.items()}
    return True


class RationalGF:
    """Quotient num/den of polynomials, held in an integer normal form.

    The normal form clears all coefficient denominators, divides out the
    common integer content, and makes the leading coefficient of the
    denominator positive.  Equality is decided by cross multiplication, so
    no polynomial factorization is ever needed.  The denominator must have
    a nonzero constant term so power-series coefficients are defined.
    """

    __slots__ = ("num", "den")
    __hash__ = None  # normal form is not unique up to common factors

    def __init__(self, num: UniPoly, den: UniPoly = UniPoly((1,))):
        if not isinstance(num, UniPoly):
            num = UniPoly((num,)) if isinstance(num, (int, Fraction)) else UniPoly(num)
        if not isinstance(den, UniPoly):
            den = UniPoly((den,)) if isinstance(den, (int, Fraction)) else UniPoly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if den.coeff(0) == 0:
            raise ValueError("denominator needs a nonzero constant term")
        if not num:
            self.num = UniPoly()
            self.den = UniPoly.one()
            return
        scale = lcm(*(c.denominator for c in num.coeffs + den.coeffs))
        n_ints = [int(c * scale) for c in num.coeffs]
        d_ints = [int(c * scale) for c in den.coeffs]
        content = 0
        for v in n_ints + d_ints:
            content = gcd(content, v)
        if d_ints[-1] < 0:
            content = -content
        self.num = UniPoly([v // content for v in n_ints])
        self.den = UniPoly([v // content for v in d_ints])

    @classmethod
    def constant(cls, c) -> "RationalGF":
        return cls(UniPoly((c,)))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalGF.constant(other)
        if not isinstance(other, RationalGF):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other) -> "RationalGF":
        if isinstance(other, (int, Fraction)):
            other = RationalGF.constant(other)
        if not isinstance(other, RationalGF):
            return NotImplemented
        return RationalGF(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalGF":
        return RationalGF(-self.num, self.den)

    def __sub__(self, other) -> "RationalGF":
        if isinstance(other, (int, Fraction)):
            other = RationalGF.constant(other)
        return self + (-other)

    def __mul__(self, other) -> "RationalGF":
        if isinstance(other, (int, Fraction)):
            return RationalGF(self.num * as_fraction(other), self.den)
        if isinstance(other, UniPoly):
            other = RationalGF(other)
        if not isinstance(other, RationalGF):
            return NotImplemented
        return RationalGF(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalGF":
        if k < 0:
            raise ValueError("negative power of a generating function")
        return RationalGF(self.num**k, self.den**k)

    def coeffs(self, count: int) -> list[Fraction]:
        """First `count` power-series coefficients, by the linear recurrence
        the denominator imposes."""
        d0 = self.den.coeff(0)
        out: list[Fraction] = []
        for k in range(count):
            acc = self.num.coeff(k)
            for j in range(1, min(k, self.den.degree) + 1):
                acc -= self.den.coeff(j) * out[k - j]
            out.append(acc / d0)
        return out

    def even_part(self) -> "RationalGF":
        """The series sum a_{2k} t^k when self is sum a_k t^k.

        Computed as (F(s) + F(-s))/2 re-expressed in t = s^2, which stays
        inside rational functions: with P = num(s) den(-s) and
        Q = den(s) den(-s), Q is even and the even coefficients of P over
        those of Q give the result.
        """
        p = self.num * self.den.negate_var()
        q = self.den * self.den.negate_var()
        if any(q.coeff(i) != 0 for i in range(1, q.degree + 1, 2)):
            raise AssertionError("den(s)*den(-s) must be even")
        p_even = UniPoly(tuple(p.coeff(i) for i in range(0, max(p.degree, 0) + 1, 2)))
        q_even = UniPoly(tuple(q.coeff(i) for i in range(0, q.degree + 1, 2)))
        return RationalGF(p_even, q_even)

    def to_json(self) -> dict:
        return {
            "num": [int(c) for c in self.num.coeffs],
            "den": [int(c) for c in self.den.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RationalGF":
        return cls(UniPoly(data["num"]), UniPoly(data["den"]))

    def __repr__(self) -> str:
        return f"RationalGF({self.num!r} / {self.den!r})"


def gf_coeffs(gf: RationalGF, count: int) -> list[Fraction]:
    """Power-series prefix of a rational generating function."""
    return gf.coeffs(count)


class MultiPoly:
    """Sparse polynomial in a fixed number of variable slots.

    Terms map exponent tuples (length == arity) to nonzero Fractions.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict | None = None):
        self.arity = arity
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = as_fraction(c)
                if c:
                    if len(exps) != arity:
                        raise ValueError("exponent tuple has the wrong length")
                    self.terms[tuple(exps)] = c

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, c) -> "MultiPoly":
        return cls(arity, {tuple([0] * arity): c})

    @classmethod
    def monomial(cls, arity: int, exps: Sequence[int], c=1) -> "MultiPoly":
        return cls(arity, {tuple(exps): c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        out = dict(self.terms)
        for exps, c in other.terms.items():
            v = out.get(exps, Fraction(0)) + c
            if v:
                out[exps] = v
            else:
                out.pop(exps, None)
        return MultiPoly(self.arity, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if not c:
                return MultiPoly(self.arity)
            return MultiPoly(self.arity, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(key, Fraction(0)) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return MultiPoly(self.arity, out)

    __rmul__ = __mul__

    def eval_all_ones(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def set_var_zero(self, slot: int) -> "MultiPoly":
        """Substitute 0 for one variable and drop its slot."""
        if not 0 <= slot < self.arity:
            raise ValueError("slot out of range")
        out = {}
        for exps, c in self.terms.items():
            if exps[slot] == 0:
                out[exps[:slot] + exps[slot + 1 :]] = c
        return MultiPoly(self.arity - 1, out)

    def embed(self, arity: int, offset: int) -> "MultiPoly":
        """View this polynomial inside a wider slot range."""
        if offset + self.arity > arity:
            raise ValueError("embedding does not fit")
        pad_l = (0,) * offset
        pad_r = (0,) * (arity - offset - self.arity)
        return MultiPoly(arity, {pad_l + e + pad_r: c for e, c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exps in sorted(self.terms):
            mono = "*".join(f"z{i}^{e}" for i, e in enumerate(exps) if e) or "1"
            bits.append(f"{format_rational(self.terms[exps])}*{mono}")
        return "MultiPoly(" + " + ".join(bits) + ")"


if __name__ == "__main__":
    import doctest

    doctest.testmod()
