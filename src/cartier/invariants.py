"""Cartier-Manin matrices and the derived curve invariants.

A hyperelliptic curve y^2 = f(x) with deg f = 2g+1 has the g x g matrix
A = [a_ij] with a_ij = kappa_{p*i - j} (1-indexed), where the kappa_i are the
coefficients of f^((p-1)/2); indices outside [0, deg] read as zero.  The
a-number is g - rank(A), and the p-rank is the rank of the g-fold semilinear
iterate A^(sigma^(g-1)) * ... * A^(sigma) * A, sigma the entrywise p-power map.

The matrix is always built from actual kappa coefficients; the structural
zero patterns are enforced as tests, never as construction shortcuts, so a
bug cannot hide behind an assumed zero.

Only odd-degree models are supported.  Even degree would need a different
kappa-to-matrix rule and is rejected loudly (``UnsupportedDegreeError``)
rather than silently mis-handled.  Non-squarefree f is accepted with
smooth=False: rank-1 classification of singular models is needed by the
degenerate-form verification, but their "invariants" are properties of the
model, not of a smooth curve.
"""

from __future__ import annotations

from typing import NamedTuple

from .fields import FieldElement, FieldSpec
from .poly import Poly, half_power, is_squarefree

__all__ = [
    "UnsupportedDegreeError",
    "Curve",
    "CartierMatrix",
    "Invariants",
    "make_curve",
    "cartier_matrix",
    "rank",
    "a_number",
    "p_rank",
    "invariants",
    "report_fragment",
]


class UnsupportedDegreeError(ValueError):
    """Raised for even-degree models (documented limitation)."""


class Curve(NamedTuple):
    f: Poly
    genus: int
    smooth: bool


class Invariants(NamedTuple):
    genus: int
    smooth: bool
    rank_a: int
    p_rank: int

    @property
    def a_number(self) -> int:
        return self.genus - self.rank_a


class CartierMatrix(NamedTuple):
    """The g x g matrix [kappa_{p*i - j}]; ``entries`` is 0-indexed, so
    entries[i][j] = kappa_{p*(i+1) - (j+1)}."""

    spec: FieldSpec
    g: int
    entries: tuple[tuple[FieldElement, ...], ...]

    def entry(self, i: int, j: int) -> FieldElement:
        """1-indexed accessor matching the usual notation a_ij."""
        return self.entries[i - 1][j - 1]

    def __repr__(self) -> str:
        rows = "; ".join(
            "[" + ",".join(str(e) for e in row) + "]" for row in self.entries
        )
        return f"CartierMatrix(g={self.g}, {rows})"


def make_curve(f: Poly) -> Curve:
    """Curve from a defining polynomial of odd degree >= 3."""
    d = f.degree
    if f.is_zero or d < 3:
        raise ValueError(f"defining polynomial must have degree >= 3, got {f!r}")
    if d % 2 == 0:
        raise UnsupportedDegreeError(
            f"degree {d} model not supported: only odd-degree y^2 = f(x)"
        )
    return Curve(f=f, genus=(int(d) - 1) // 2, smooth=is_squarefree(f))


def cartier_matrix(curve: Curve) -> CartierMatrix:
    f = curve.f
    spec = f.spec
    p = spec.p
    g = curve.genus
    kappa = half_power(f).coeffs
    n = len(kappa)
    zero = spec.zero
    entries = tuple(
        tuple(
            kappa[p * i - j] if 0 <= p * i - j < n else zero
            for j in range(1, g + 1)
        )
        for i in range(1, g + 1)
    )
    return CartierMatrix(spec, g, entries)


def _rank_of_rows(rows: list[list[FieldElement]]) -> int:
    """Exact rank by Gaussian elimination over the field (mutates rows)."""
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, m):
            if not rows[i][col].is_zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pinv = prow[col].inv()
        for i in range(r + 1, m):
            c = rows[i][col]
            if c.is_zero:
                continue
            factor = c * pinv
            row = rows[i]
            for j in range(col, n):
                row[j] = row[j] - factor * prow[j]
        r += 1
        if r == m:
            break
    return r


def rank(matrix: CartierMatrix) -> int:
    return _rank_of_rows([list(row) for row in matrix.entries])


def a_number(curve: Curve) -> int:
    return curve.genus - rank(cartier_matrix(curve))


def _matmul(
    x: list[list[FieldElement]], y: list[list[FieldElement]], zero: FieldElement
) -> list[list[FieldElement]]:
    cols = list(zip(*y))
    out = []
    for row in x:
        out_row = []
        for col in cols:
            acc = zero
            for a, b in zip(row, col):
                acc = acc + a * b
            out_row.append(acc)
        out.append(out_row)
    return out


def _p_rank_of_matrix(matrix: CartierMatrix) -> int:
    """Rank of A^(sigma^(g-1)) * ... * A^(sigma) * A.

    The Cartier operator sends coordinates c to (A c)^(sigma^-1), so its
    g-th iterate is (A^(sigma^-1) * ... * A^(sigma^-g)) c^(sigma^-g), whose
    sigma^g image is the product above; the g-fold iterate has the stable
    rank.  Over F_p and F_{p^2} the reverse product A * ... * A^(sigma^(g-1))
    has the same rank (for odd g it is the same matrix, for even g the
    entrywise Frobenius of this one); over F_{p^k} with k >= 3 its rank can
    differ.
    """
    g = matrix.g
    zero = matrix.spec.zero
    prod = [list(row) for row in matrix.entries]
    twisted = [list(row) for row in matrix.entries]
    for _ in range(1, g):
        twisted = [[e.frobenius(1) for e in row] for row in twisted]
        prod = _matmul(twisted, prod, zero)
    return _rank_of_rows(prod)


def p_rank(curve: Curve) -> int:
    return _p_rank_of_matrix(cartier_matrix(curve))


def invariants(f: Poly) -> Invariants:
    """Full invariant record for y^2 = f(x).

    The smooth flag is always present: a-numbers of singular models are model
    properties, not curve invariants, and callers must not drop the flag.
    """
    curve = make_curve(f)
    matrix = cartier_matrix(curve)
    return Invariants(
        genus=curve.genus,
        smooth=curve.smooth,
        rank_a=rank(matrix),
        p_rank=_p_rank_of_matrix(matrix),
    )


def report_fragment(f: Poly, inv: Invariants | None = None) -> dict:
    """The JSON report fragment for one curve."""
    if inv is None:
        inv = invariants(f)
    return {
        "p": f.spec.p,
        "k": f.spec.k,
        "genus": inv.genus,
        "smooth": inv.smooth,
        "rank_A": inv.rank_a,
        "a_number": inv.a_number,
        "p_rank": inv.p_rank,
        "coeffs": [str(c) for c in f.coeffs],
    }
