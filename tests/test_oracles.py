"""Oracles outside the kappa = f^((p-1)/2) pipeline and metamorphic
relations: Manin's point-count congruence, and invariants that a change of
variable or a Frobenius twist of the coefficients must keep, checked in the
object layer and in the kernel."""

import random

import pytest

from cartier import (
    Poly,
    cartier_matrix,
    enumerate_field,
    invariants,
    is_squarefree,
    make_curve,
    make_field,
)
from cartier._kernel import get_kernel, matrix_rows


def _random_normalized(F, genus, rng):
    """Monic of degree 2g+1 with c0 = 0."""
    middle = [F.from_encoding(rng.randrange(F.order)) for _ in range(2 * genus)]
    return Poly(F, [F.zero, *middle, F.one])


def _kernel_rows(F, f):
    kern = get_kernel(F.p, F.k, F.modulus)
    enc = [c.encoding for c in f.coeffs]
    genus = (len(enc) - 2) // 2
    return kern, enc, matrix_rows(kern.poly_pow(enc, (F.p - 1) // 2), genus, F.p)


def _kernel_invariants(F, f):
    kern, enc, rows = _kernel_rows(F, f)
    genus = len(rows)
    return (
        kern.is_squarefree(enc),
        kern.rank([list(r) for r in rows]),
        kern.p_rank(rows, genus),
    )


def _point_count(coeffs, p):
    """#C(F_p) for y^2 = f(x), deg f odd: p affine x-values weighted by
    1 + chi(f(x)), plus the one point at infinity.  Plain ints only."""
    chi = {0: 0, 1: 1, p - 1: -1}
    total = p + 1
    for x in range(p):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % p
        total += chi[pow(v, (p - 1) // 2, p)]
    return total


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_manin_congruence_on_point_counts(p):
    # Manin 1961 (Yui 1978 for hyperelliptic curves): #C(F_p) = 1 - tr(A)
    # (mod p); the count shares no code with the Cartier-Manin matrix
    from cartier.invariants import cartier_matrix, make_curve

    F = make_field(p)
    rng = random.Random(7000 + p)
    for genus in range(1, 5):
        checked = 0
        while checked < 25:
            coeffs = [rng.randrange(p) for _ in range(2 * genus + 1)] + [1]
            f = Poly.from_ints(F, coeffs)
            if not is_squarefree(f):
                continue
            count = _point_count(coeffs, p)
            obj = cartier_matrix(make_curve(f))
            obj_trace = sum(obj.entry(i, i).encoding for i in range(1, genus + 1))
            _, _, rows = _kernel_rows(F, f)
            kern_trace = sum(rows[i][i] for i in range(genus))
            assert (count - 1 + obj_trace) % p == 0, f.text()
            assert (count - 1 + kern_trace) % p == 0, f.text()
            checked += 1


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_square_scaling_of_x_keeps_invariants(p, k):
    # x -> u^2 x and f -> u^(-2(2g+1)) f(u^2 x) give an isomorphic curve
    # (y -> u^(2g+1) y), still monic with c0 = 0; over F_3 every u^2 is 1
    F = make_field(p, k)
    units = [u for u in enumerate_field(F) if not u.is_zero]
    rng = random.Random(8000 + 10 * p + k)
    for _ in range(75):
        genus = rng.randint(1, 4)
        f = _random_normalized(F, genus, rng)
        s = rng.choice(units) ** 2
        scale = (s ** (2 * genus + 1)).inv()
        image = Poly(F, [c * s**i * scale for i, c in enumerate(f.coeffs)])
        assert image.leading == F.one and image.coefficient(0).is_zero
        assert invariants(image) == invariants(f), f.text()
        assert _kernel_invariants(F, image) == _kernel_invariants(F, f), f.text()


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_frobenius_on_coefficients_keeps_invariants(p, k):
    # the conjugate curve: its Cartier-Manin matrix is A's entrywise
    # Frobenius image, with the same rank and the same semilinear iterate rank
    F = make_field(p, k)
    rng = random.Random(9000 + 10 * p + k)
    for _ in range(45):
        f = _random_normalized(F, rng.randint(1, 4), rng)
        image = Poly(F, [c.frobenius(1) for c in f.coeffs])
        assert invariants(image) == invariants(f), f.text()
        assert _kernel_invariants(F, image) == _kernel_invariants(F, f), f.text()
