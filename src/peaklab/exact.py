"""Exact rational arithmetic: polynomials, generating functions, interpolation,
row reduction.

Everything downstream (order polynomials, structure polynomials, idempotent
coefficients, quasisymmetric realizations) is built on the three containers
here:

* UniPoly    -- dense univariate polynomial with exact rational coefficients,
                held as ints when integral,
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

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to an exact rational")


def format_rational(q) -> str:
    """Serialize a rational as 'p' or 'p/q'."""
    if type(q) is int:
        return str(q)
    q = as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coefficient(value):
    """An exact coefficient in normal form: an int when it is integral,
    else a Fraction.  Floats are refused."""
    if isinstance(value, int):
        return int(value)
    q = as_fraction(value)
    return q.numerator if q.denominator == 1 else q


def _normal_coeffs(cs: list) -> tuple:
    """A coefficient list in normal form: each integral value as an int,
    trailing zeros trimmed."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(c.numerator if c.denominator == 1 else c for c in cs)


class UniPoly:
    """Dense univariate polynomial; coeffs[i] multiplies the i-th power.

    Trailing zeros are trimmed, so the zero polynomial has no coefficients
    and degree -1.  Coefficients are held as ints when integral and as
    Fractions only otherwise, so integer polynomials (every peak, Eulerian
    and generating-function polynomial here) stay in integer arithmetic;
    evaluation and coeff() still return Fractions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs: tuple[int | Fraction, ...] = _normal_coeffs([_coefficient(c) for c in coeffs])

    @classmethod
    def _trusted(cls, coeffs: tuple) -> "UniPoly":
        """Wrap coefficients that are already in normal form, unchecked."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

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
        return UniPoly._trusted(_normal_coeffs(out))

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly._trusted(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "UniPoly":
        return self + (-other if isinstance(other, UniPoly) else UniPoly((-as_fraction(other),)))

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            return UniPoly._trusted(_normal_coeffs([a * c for a in self.coeffs]))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly._trusted(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        right = other.coeffs
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(right, i):
                    out[j] += a * b
        return UniPoly._trusted(_normal_coeffs(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly._trusted((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x) -> Fraction:
        x = _coefficient(x)
        p, q = x.numerator, x.denominator
        # Horner on a numerator over a denominator, reduced once at the end
        num, den = 0, 1
        for c in reversed(self.coeffs):
            cn, cd = c.numerator, c.denominator
            num = num * p * cd + cn * den * q
            den *= q * cd
        return Fraction(num, den)

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """Substitute `inner` for the variable (Horner over polynomials)."""
        acc = UniPoly._trusted(())
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def negate_var(self) -> "UniPoly":
        """p(t) -> p(-t)."""
        return UniPoly._trusted(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.coeffs[i]) if 0 <= i < len(self.coeffs) else Fraction(0)

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
    """What is left of a sparse row (key -> int or Fraction) after elimination
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
            v = row.get(p, 0) - factor * c
            if v:
                row[p] = v
            else:
                row.pop(p, None)
    return row


def basis_insert(row: dict, basis: dict) -> bool:
    """Add a sparse row to an echelon basis unless it lies in the span
    already; True when the basis grew.  The stored row is divided by its
    lead and holds each integral coefficient as an int, so rows of integers
    with lead 1 eliminate in integers."""
    row = reduce_row(row, basis)
    if not row:
        return False
    pivot = min(row)
    lead = row[pivot]
    if lead != 1:
        lead = Fraction(lead)
        row = {p: c / lead for p, c in row.items()}
    basis[pivot] = _normal_terms(row)
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
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not den.coeffs[0]:
            raise ValueError("denominator needs a nonzero constant term")
        if not num:
            self.num = UniPoly._trusted(())
            self.den = UniPoly._trusted((1,))
            return
        n_ints, d_ints = num.coeffs, den.coeffs
        scale = lcm(*(c.denominator for c in n_ints + d_ints))
        if scale != 1:
            n_ints = [int(c * scale) for c in n_ints]
            d_ints = [int(c * scale) for c in d_ints]
        content = gcd(*n_ints, *d_ints)
        if d_ints[-1] < 0:
            content = -content
        # dividing out the content keeps every leading coefficient nonzero
        self.num = UniPoly._trusted(tuple(v // content for v in n_ints))
        self.den = UniPoly._trusted(tuple(v // content for v in d_ints))

    @classmethod
    def constant(cls, c) -> "RationalGF":
        return cls(UniPoly((c,)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalGF):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other) -> "RationalGF":
        if not isinstance(other, RationalGF):
            return NotImplemented
        return RationalGF(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other) -> "RationalGF":
        if not isinstance(other, RationalGF):
            return NotImplemented
        return RationalGF(self.num * other.num, self.den * other.den)

    def coeffs(self, count: int) -> list[Fraction]:
        """First `count` power-series coefficients, by the linear recurrence
        the denominator imposes.  The recurrence runs in ints for as long as
        the constant term of the denominator divides evenly."""
        num, den = self.num.coeffs, self.den.coeffs
        d0 = den[0]
        out: list = []
        for k in range(count):
            acc = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            if isinstance(acc, int) and acc % d0 == 0:
                out.append(acc // d0)
            else:
                out.append(Fraction(acc, d0))
        return [c if isinstance(c, Fraction) else Fraction(c) for c in out]

    def even_part(self) -> "RationalGF":
        """The series sum a_{2k} t^k when self is sum a_k t^k.

        Computed as (F(s) + F(-s))/2 re-expressed in t = s^2, which stays
        inside rational functions: with P = num(s) den(-s) and
        Q = den(s) den(-s), Q is even and the even coefficients of P over
        those of Q give the result.
        """
        p = self.num * self.den.negate_var()
        q = self.den * self.den.negate_var()
        if any(q.coeffs[1::2]):
            raise AssertionError("den(s)*den(-s) must be even")
        return RationalGF(UniPoly(p.coeffs[::2]), UniPoly(q.coeffs[::2]))

    def to_json(self) -> dict:
        return {
            "num": list(self.num.coeffs),
            "den": list(self.den.coeffs),
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

    Terms map exponent tuples (length == arity) to nonzero exact rationals,
    held as ints when integral and as Fractions only otherwise, so integer
    polynomials (every enumerator and realization here) stay in integer
    arithmetic.  An int and an equal Fraction compare and hash alike, so
    equality does not depend on which form a coefficient arrived in.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict | None = None):
        self.arity = arity
        self.terms: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = _coefficient(c)
                if c:
                    if len(exps) != arity:
                        raise ValueError("exponent tuple has the wrong length")
                    self.terms[tuple(exps)] = c

    @classmethod
    def _trusted(cls, arity: int, terms: dict) -> "MultiPoly":
        """Wrap terms that are already in normal form (tuple keys of the
        right length, nonzero coefficients in normal form), unchecked."""
        out = object.__new__(cls)
        out.arity = arity
        out.terms = terms
        return out

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
        get = out.get
        for exps, c in other.terms.items():
            v = get(exps, 0) + c
            if v:
                # an int stays itself; a Fraction sum may have become integral
                out[exps] = v.numerator if v.denominator == 1 else v
            else:
                del out[exps]
        return MultiPoly._trusted(self.arity, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            scaled = {e: v * c for e, v in self.terms.items()}
            return MultiPoly._trusted(self.arity, _normal_terms(scaled))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        out: dict = {}
        get = out.get
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                key = tuple(map(add, e1, e2))
                out[key] = get(key, 0) + c1 * c2
        return MultiPoly._trusted(self.arity, _normal_terms(out))

    __rmul__ = __mul__

    def eval_all_ones(self) -> Fraction:
        """The sum of the coefficients, always as a Fraction."""
        return Fraction(sum(self.terms.values()))

    def set_var_zero(self, slot: int) -> "MultiPoly":
        """Substitute 0 for one variable and drop its slot."""
        if not 0 <= slot < self.arity:
            raise ValueError("slot out of range")
        out = {}
        for exps, c in self.terms.items():
            if exps[slot] == 0:
                out[exps[:slot] + exps[slot + 1 :]] = c
        return MultiPoly._trusted(self.arity - 1, out)

    def embed(self, arity: int, offset: int) -> "MultiPoly":
        """View this polynomial inside a wider slot range."""
        if offset + self.arity > arity:
            raise ValueError("embedding does not fit")
        pad_l = (0,) * offset
        pad_r = (0,) * (arity - offset - self.arity)
        return MultiPoly._trusted(arity, {pad_l + e + pad_r: c for e, c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exps in sorted(self.terms):
            mono = "*".join(f"z{i}^{e}" for i, e in enumerate(exps) if e) or "1"
            bits.append(f"{format_rational(self.terms[exps])}*{mono}")
        return "MultiPoly(" + " + ".join(bits) + ")"


def _normal_terms(terms: dict) -> dict:
    """The nonzero entries of a coefficient dict, each in normal form."""
    return {e: (c.numerator if c.denominator == 1 else c) for e, c in terms.items() if c}


if __name__ == "__main__":
    import doctest

    doctest.testmod()
