"""Exact arithmetic in small prime and extension fields F_{p^k}.

A field is described by a :class:`FieldSpec` (odd prime characteristic ``p``,
extension degree ``k``, and a monic irreducible modulus of degree ``k`` over
F_p).  Elements are immutable coordinate vectors over F_p, ascending powers of
the generator, always kept in canonical reduced form.

The representation is deliberately table-free: fields in scope are tiny
(p <= 13, k <= 3 in practice), every result is computed from the coordinates
alone, and exactness comes before speed.  The arithmetic is written once, on
coordinate tuples: a field's ``_CoordOps`` (``_coord_ops(spec)``) binds p
and the modulus, with k = 1 specialised.  FieldElement's operators and the
loops in ``poly`` and ``invariants`` run on it and build elements, through
the private ``_reduced``, only for what they return.  This object layer
(fields, poly, invariants) imports only itself and the standard library;
the search engine's integer-encoded fast path is cross-checked against it.

Text formats:
  * element: prime field as a decimal integer ("5"); extension field as a
    bracketed ascending coordinate list ("[2,1]" means 2 + a).  A bare decimal
    over an extension field is accepted on input as the constant embedding.
  * field: "p=3,k=2,mod=[1,0,1]".
"""

from __future__ import annotations

import functools
import operator
import random
from array import array
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "FieldSpec",
    "FieldElement",
    "make_field",
    "enumerate_field",
    "random_element",
    "parse_element",
    "parse_field_spec",
]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _power(x, n: int, one, mul=operator.mul):
    """x^n, n >= 0, by right-to-left square-and-multiply (Knuth, TAOCP vol. 2,
    sec. 4.6.3): popcount(n) + bit_length(n) - 2 products for n >= 1, as it
    forms no square past the top bit, where no bit would read it, and takes
    the lowest set bit's power as it is, not times one."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return one if result is None else result


def _rand_below(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n) from ``rng`` via bit rejection.

    This is the project's pinned draw primitive: ceil(log2(n)) bits from
    MT19937 ``getrandbits``, rejecting values >= n.  Identical seeds give
    identical streams on every platform and Python version.
    """
    if n <= 1:
        return 0
    bits = (n - 1).bit_length()
    while True:
        r = rng.getrandbits(bits)
        if r < n:
            return r


def _draws_below(rng: random.Random, n: int, sizes: Iterable[int]) -> Iterator[array]:
    """For each size in ``sizes``, the next that many values of
    :func:`_rand_below` (rng, n), 2 <= n <= 2^16, as an array of typecode
    'B' (n <= 256) or 'H'.

    The same values from the same words in bulk: ``getrandbits(b)``, b <= 32,
    is the top b bits of the next MT19937 word, and ``getrandbits(32 m)``
    holds the next m words, least significant first.  So the top byte (or
    two) of each word, shifted down and with the rejected ones dropped,
    continues the stream.  Accepted values carry over to the next size; a
    few words past the last value used may be drawn and never read.
    """
    bits = (n - 1).bit_length()
    wide = n > 256
    shift = (16 if wide else 8) - bits
    table = bytes(b >> shift for b in range(256))
    drop = bytes(b for b in range(256) if b >> shift >= n)
    values = array("H" if wide else "B")
    for size in sizes:
        while len(values) < size:
            words = ((size - len(values)) << bits) // n + 16
            raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            if wide:
                tops = (hi << 8 | lo for hi, lo in zip(raw[3::4], raw[2::4]))
                values.extend(v for t in tops if (v := t >> shift) < n)
            else:
                values.frombytes(raw[3::4].translate(table, drop))
        yield values[:size]
        del values[:size]


class FieldSpec(NamedTuple):
    """Description of F_{p^k}.

    ``modulus`` is the defining monic irreducible, length k+1, ascending
    powers, residues in [0, p-1].  For k = 1 it is the formal placeholder
    (0, 1) and plays no role in arithmetic.  Build instances through
    :func:`make_field`, which validates everything.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.k

    def element(self, value: int | Sequence[int]) -> "FieldElement":
        """Element from an integer (constant embedding, reduced mod p) or a
        full coordinate sequence."""
        if isinstance(value, int):
            coords = (value,) + (0,) * (self.k - 1)
        else:
            if len(value) != self.k:
                raise ValueError(
                    f"expected {self.k} coordinates, got {len(value)}"
                )
            coords = tuple(value)
        return FieldElement(self, coords)

    def from_encoding(self, e: int) -> "FieldElement":
        """Element number ``e`` in the canonical base-p enumeration order."""
        if not 0 <= e < self.order:
            raise ValueError(f"encoding {e} out of range for {self}")
        coords = []
        for _ in range(self.k):
            e, r = divmod(e, self.p)
            coords.append(r)
        return _reduced(_coord_ops(self), tuple(coords))

    @property
    def zero(self) -> "FieldElement":
        return _reduced(_coord_ops(self), (0,) * self.k)

    @property
    def one(self) -> "FieldElement":
        return _reduced(_coord_ops(self), (1,) + (0,) * (self.k - 1))

    @property
    def gen(self) -> "FieldElement":
        """The generator a of the extension (the residue of x); requires k > 1."""
        if self.k < 2:
            raise ValueError("prime field has no extension generator")
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def text(self) -> str:
        return f"p={self.p},k={self.k},mod=[{','.join(str(c) for c in self.modulus)}]"

    def __str__(self) -> str:
        return self.text()


class FieldElement:
    """An element of F_{p^k} in canonical coordinates (ascending powers); it
    carries its field's ``_CoordOps``, so an operator reads neither p nor k."""

    __slots__ = ("spec", "coords", "_ops")

    def __init__(self, spec: FieldSpec, coords: tuple[int, ...]):
        p = spec.p
        self.spec = spec
        self.coords = tuple(c % p for c in coords)
        self._ops = _coord_ops(spec)

    def __reduce__(self):  # the operations are closures: pickle what they come from
        return FieldElement, (self.spec, self.coords)

    def _ops_for(self, other: "FieldElement") -> "_CoordOps":
        """The field's coordinate operations, once other is checked to share them."""
        if other._ops is not self._ops:
            raise ValueError(
                f"elements of different fields: {self.spec} vs {other.spec}"
            )
        return self._ops

    def __add__(self, other: "FieldElement") -> "FieldElement":
        ops = self._ops_for(other)
        return _reduced(ops, ops.add(self.coords, other.coords))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        ops = self._ops_for(other)
        return _reduced(ops, ops.sub(self.coords, other.coords))

    def __neg__(self) -> "FieldElement":
        return _reduced(self._ops, self._ops.neg(self.coords))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        ops = self._ops_for(other)
        return _reduced(ops, ops.mul(self.coords, other.coords))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inv()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inv() ** (-n)
        return _power(self, n, self.spec.one)

    def inv(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        return _reduced(self._ops, self._ops.inv(self.coords))

    def frobenius(self, i: int = 1) -> "FieldElement":
        """The i-fold p-th power map a -> a^(p^i)."""
        if i < 0:
            raise ValueError("frobenius power must be >= 0")
        if i % self.spec.k == 0:  # a^(p^k) = a
            return self
        return _reduced(self._ops, self._ops.frob(self.coords, i))

    def pth_root(self) -> "FieldElement":
        """The unique b with b^p = a (Frobenius is an automorphism)."""
        return self.frobenius(self.spec.k - 1)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    @property
    def encoding(self) -> int:
        """Position in the canonical base-p enumeration (c0 + c1*p + ...)."""
        e = 0
        for c in reversed(self.coords):
            e = e * self.spec.p + c
        return e

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.coords == other.coords and self.spec == other.spec

    def __hash__(self) -> int:
        return hash((self.spec, self.coords))

    def __str__(self) -> str:
        if self.spec.k == 1:
            return str(self.coords[0])
        return "[" + ",".join(str(c) for c in self.coords) + "]"

    def __repr__(self) -> str:
        return f"FieldElement({self} in {self.spec})"


def _reduced(ops: _CoordOps, coords: tuple[int, ...]) -> FieldElement:
    """Element of ops's field from a length-k tuple already in [0, p)."""
    e = object.__new__(FieldElement)
    e.spec = ops.spec
    e.coords = coords
    e._ops = ops
    return e


def _schoolbook(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The unreduced product of two coordinate tuples: 2k-1 integers."""
    prod = [0] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return prod


class _CoordOps:
    """One field's arithmetic on canonical coordinate tuples (length k,
    entries in [0, p)): add, sub, neg, mul, inv of a nonzero tuple,
    frob(a, i=1) = a^(p^i), dot(xs, ys) = the sum of x * y over the pairs and
    submul(xs, c, ys) = [x - c * y for each pair]."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        p, k, modulus = spec
        self.zero, self.one = zero, one = (0,) * k, (1,) + (0,) * (k - 1)
        if k == 1:  # one coordinate, and the modulus plays no role
            self.add = lambda a, b: ((a[0] + b[0]) % p,)
            self.sub = lambda a, b: ((a[0] - b[0]) % p,)
            self.neg = lambda a: (-a[0] % p,)
            self.mul = lambda a, b: (a[0] * b[0] % p,)
            self.inv = lambda a: (pow(a[0], -1, p),)
            self.frob = lambda a, i=1: a
            self.dot = lambda xs, ys: (sum([x[0] * y[0] for x, y in zip(xs, ys)]) % p,)
            self.submul = lambda xs, c, ys: [
                ((x[0] - c[0] * y[0]) % p,) for x, y in zip(xs, ys)
            ]
            return

        def mul(a, b):
            return _reduce_coords(_schoolbook(a, b), p, modulus)[0]

        def dot(xs, ys):  # the products summed unreduced, then one reduction
            acc = [sum(c) for c in zip(*map(_schoolbook, xs, ys))]
            return _reduce_coords(acc, p, modulus)[0]

        def submul(xs, c, ys):
            c = self.neg(c)
            return [dot((one, c), (x, y)) for x, y in zip(xs, ys)]

        self.add = lambda a, b: tuple([(x + y) % p for x, y in zip(a, b)])
        self.sub = lambda a, b: tuple([(x - y) % p for x, y in zip(a, b)])
        self.neg = lambda a: tuple([-x % p for x in a])
        self.mul = mul
        self.inv = lambda a: _power(a, p**k - 2, one, mul)
        self.frob = lambda a, i=1: _power(a, p ** (i % k), one, mul)
        self.dot, self.submul = dot, submul


# each field's one set, built on first use; equal specs share it
_coord_ops = functools.cache(_CoordOps)


def _reduce_coords(
    acc: list[int], p: int, modulus: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Canonical coordinates of unreduced products.

    ``acc`` is a run of blocks of 2k-1 integers of any size or sign, each
    block one product's coordinates in ascending powers of the generator.
    Each block is reduced once, modulo the monic modulus and p.  Mutates
    ``acc``.
    """
    k = len(modulus) - 1
    if k == 1:  # a block is one integer and the modulus plays no role
        return [(v % p,) for v in acc]
    w = 2 * k - 1
    out = []
    for start in range(0, len(acc), w):
        for i in range(start + w - 1, start + k - 1, -1):
            c = acc[i] % p
            if c:
                base = i - k
                for j in range(k):
                    acc[base + j] -= c * modulus[j]
        out.append(tuple([v % p for v in acc[start : start + k]]))
    return out


def make_field(
    p: int, k: int = 1, modulus: Sequence[int] | None = None
) -> FieldSpec:
    """Validated constructor for F_{p^k}.

    If ``modulus`` is omitted and k > 1, picks the lexicographically smallest
    monic irreducible of degree k over F_p (coefficient tuples compared
    low-to-high as base-p integers).  A supplied modulus must be monic of
    degree k and irreducible.
    """
    if not isinstance(p, int) or p < 3 or _prime_factors(p) != [p]:
        raise ValueError(f"characteristic must be an odd prime, got {p}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if k == 1:
        if modulus is not None and tuple(modulus) != (0, 1):
            raise ValueError("prime field takes no modulus (placeholder is x)")
        return FieldSpec(p, 1, (0, 1))
    if modulus is None:
        return FieldSpec(p, k, _smallest_irreducible(p, k))
    mod = tuple(int(c) % p for c in modulus)
    if len(mod) != k + 1:
        raise ValueError(f"modulus must have degree {k} (length {k + 1})")
    if mod[-1] != 1:
        raise ValueError("modulus must be monic")
    if not _modulus_irreducible(p, mod):
        raise ValueError(f"modulus {list(mod)} is reducible over F_{p}")
    return FieldSpec(p, k, mod)


def _modulus_irreducible(p: int, mod: tuple[int, ...]) -> bool:
    from .poly import Poly, is_irreducible

    base = make_field(p, 1)
    return is_irreducible(Poly.from_ints(base, mod))


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    for n in range(p**k):
        cand = tuple(n // p**i % p for i in range(k)) + (1,)
        if _modulus_irreducible(p, cand):
            return cand
    raise AssertionError("no irreducible polynomial found (unreachable)")


def enumerate_field(spec: FieldSpec) -> Iterator[FieldElement]:
    """All p^k elements exactly once, ascending base-p coordinate order."""
    for e in range(spec.order):
        yield spec.from_encoding(e)


def random_element(spec: FieldSpec, rng: random.Random) -> FieldElement:
    """Uniform element from a seeded generator; identical seeds give
    identical streams (see :func:`_rand_below` for the pinned scheme)."""
    return spec.from_encoding(_rand_below(rng, spec.order))


def _split_csv(text: str) -> list[str]:
    """Split on commas that are outside [...] brackets."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced brackets in {text!r}")
    parts.append("".join(current))
    return parts


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    """Parse the element text format (decimal, or bracketed coordinates)."""
    t = text.strip()
    if not t:
        raise ValueError("empty field element")
    if t.startswith("["):
        if not t.endswith("]"):
            raise ValueError(f"malformed element {text!r}")
        inner = t[1:-1].strip()
        coords = [int(c) for c in inner.split(",")] if inner else []
        if len(coords) != spec.k:
            raise ValueError(
                f"element {text!r} has {len(coords)} coordinates, field needs {spec.k}"
            )
        return spec.element(coords)
    return spec.element(int(t))


def parse_field_spec(text: str) -> FieldSpec:
    """Parse "p=3,k=2,mod=[1,0,1]" (k and mod optional)."""
    p = None
    k = 1
    mod: list[int] | None = None
    for part in _split_csv(text):
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "p":
            p = int(value)
        elif key == "k":
            k = int(value)
        elif key == "mod":
            if not (value.startswith("[") and value.endswith("]")):
                raise ValueError(f"malformed modulus in {text!r}")
            mod = [int(c) for c in value[1:-1].split(",")]
        else:
            raise ValueError(f"unknown field spec key {key!r}")
    if p is None:
        raise ValueError(f"field spec {text!r} missing p")
    return make_field(p, k, mod)
