"""Dense univariate polynomials over a finite field.

Coefficients are stored ascending with no trailing zeros; the zero polynomial
has an empty coefficient tuple and degree ``NEG_INFINITY``.  All operations
are pure and exact.  Multiplication is schoolbook on purpose: every
polynomial in scope has degree at most a few hundred, where schoolbook wins.
It is one loop over integer coordinates: each output coefficient accumulates
its unreduced coordinate products and is reduced once, by the step an
element product uses (``fields._reduce_coords``).

Text format: comma-separated ascending coefficients in the field element text
format, e.g. over F_7 "0,1,0,0,0,0,0,0,0,1" is x + x^9 and over F_9
"0,[1,0],[2,1]" is x + (2+a)x^2.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .fields import (
    FieldElement,
    FieldSpec,
    _power,
    _prime_factors,
    _reduce_coords,
    _reduced,
    _split_csv,
    parse_element,
)

__all__ = [
    "NEG_INFINITY",
    "Poly",
    "half_power",
    "derivative",
    "gcd",
    "is_squarefree",
    "is_irreducible",
    "parse_poly",
]

NEG_INFINITY = float("-inf")  # degree of the zero polynomial


class Poly:
    """Immutable dense polynomial over a fixed :class:`FieldSpec`."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Iterable[FieldElement]):
        cs = list(coeffs)
        for c in cs:
            if c.spec is not spec and c.spec != spec:
                raise ValueError("coefficient from a different field")
        while cs and cs[-1].is_zero:
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (spec.one,))

    @classmethod
    def from_ints(cls, spec: FieldSpec, values: Sequence[int]) -> "Poly":
        """Coefficients given as enumeration encodings (plain residues for
        prime fields)."""
        return cls(spec, (spec.from_encoding(v % spec.order) for v in values))

    @classmethod
    def monomial(
        cls, spec: FieldSpec, degree: int, coeff: FieldElement | None = None
    ) -> "Poly":
        c = spec.one if coeff is None else coeff
        return cls(spec, (spec.zero,) * degree + (c,))

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> FieldElement:
        """Coefficient of x^i, zero outside the stored range."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.spec.zero

    def _same_field(self, other: "Poly") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.spec, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.spec, (-c for c in self.coeffs))

    def __mul__(self, other: "Poly | FieldElement") -> "Poly":
        if isinstance(other, FieldElement):
            return Poly(self.spec, (c * other for c in self.coeffs))
        self._same_field(other)
        spec = self.spec
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(spec)
        # Read each polynomial as one integer sequence, coordinate s of the
        # coefficient of x^i at i*w + s.  With w = 2k-1 the coordinate
        # convolutions of different output coefficients cannot overlap, so
        # one integer schoolbook loop gives every unreduced convolution and
        # each output coefficient is reduced once.
        w = 2 * spec.k - 1
        xs = [
            (i * w + s, c) for i, e in enumerate(a) for s, c in enumerate(e.coords) if c
        ]
        ys = [
            (j * w + t, c) for j, e in enumerate(b) for t, c in enumerate(e.coords) if c
        ]
        acc = [0] * ((len(a) + len(b) - 1) * w)
        for m, x in xs:
            for n, y in ys:
                acc[m + n] += x * y
        coords = _reduce_coords(acc, spec.p, spec.modulus)
        return Poly(spec, [_reduced(spec, c) for c in coords])

    def __rmul__(self, other: FieldElement) -> "Poly":
        return self * other

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, Poly.one(self.spec))

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.spec is not self.spec and x.spec != self.spec:
            raise ValueError("evaluation point from a different field")
        acc = self.spec.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.spec), self
        lead_inv = other.leading.inv()
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        quot = [self.spec.zero] * (len(rem) - db)
        for i in range(len(rem) - db - 1, -1, -1):
            c = rem[db + i]
            if c.is_zero:
                continue
            q = c * lead_inv
            quot[i] = q
            for j in range(db + 1):
                rem[i + j] = rem[i + j] - q * other.coeffs[j]
        return Poly(self.spec, quot), Poly(self.spec, rem[:db])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        if self.leading == self.spec.one:
            return self
        return self * self.leading.inv()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Poly({self.text()!r} over {self.spec})"


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    """Parse the polynomial text format over ``spec``."""
    t = text.strip()
    if not t:
        return Poly.zero(spec)
    return Poly(spec, (parse_element(spec, part) for part in _split_csv(t)))


def half_power(f: Poly) -> Poly:
    """f^((p-1)/2), the generator of the Cartier coefficients kappa_i.

    Square-and-multiply by the loop every power in this layer shares
    (``fields._power``), which forms no square that it does not read; the
    repeated-product form lives in the tests as the independent oracle.
    """
    if f.is_zero:
        raise ValueError("half_power of the zero polynomial")
    return f ** ((f.spec.p - 1) // 2)


def derivative(f: Poly) -> Poly:
    """Formal derivative; terms with p | i vanish."""
    spec = f.spec
    return Poly(
        spec,
        (spec.element(i) * c for i, c in enumerate(f.coeffs) if i > 0),
    )


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor by Euclid; error when both are zero."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def is_squarefree(f: Poly) -> bool:
    """True iff f has no repeated roots: gcd(f, f') constant and f' != 0.

    A vanishing derivative means f is a p-th power, hence (deg >= 1) not
    squarefree.  Zero or constant input is an error.
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("squarefree test needs degree >= 1")
    fp = derivative(f)
    if fp.is_zero:
        return False
    return gcd(f, fp).degree == 0


def _powmod(base: Poly, n: int, mod: Poly) -> Poly:
    return _power(base % mod, n, Poly.one(base.spec) % mod, lambda a, b: a * b % mod)


def is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test for monic f over a prime field.

    f is irreducible of degree d iff x^(p^d) = x (mod f) and, for every prime
    q | d, gcd(x^(p^(d/q)) - x, f) = 1.
    """
    if f.spec.k != 1:
        raise ValueError("irreducibility test requires prime-field coefficients")
    if f.is_zero or f.degree < 1:
        raise ValueError("irreducibility test needs degree >= 1")
    if f.leading != f.spec.one:
        raise ValueError("irreducibility test needs a monic polynomial")
    p = f.spec.p
    d = len(f.coeffs) - 1
    x = Poly.monomial(f.spec, 1)
    if _powmod(x, p**d, f) != x % f:
        return False
    for q in _prime_factors(d):
        u = _powmod(x, p ** (d // q), f) - (x % f)
        if u.is_zero or gcd(u, f).degree != 0:
            return False
    return True
