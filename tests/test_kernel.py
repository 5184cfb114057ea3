"""Differential tests: the integer-encoded search kernel against the object
layer, which is the reference implementation."""

import itertools
import random

import pytest

from cartier import (
    Poly,
    cartier_matrix,
    enumerate_field,
    half_power,
    is_squarefree,
    make_curve,
    make_field,
)
from cartier._kernel import (
    end_rows,
    get_kernel,
    matrix_rows,
    rows_could_be_rank_le_1,
    scan,
)
from cartier.invariants import p_rank as obj_p_rank
from cartier.invariants import rank as obj_rank

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (7, 2)]


def _encodings(poly, length):
    """The first ``length`` coefficient encodings of ``poly``, zero-padded."""
    encs = [c.encoding for c in poly.coeffs[:length]]
    return encs + [0] * (length - len(encs))


@pytest.mark.parametrize("p,k", FIELDS + [(3, 3), (3, 4), (5, 2)])
def test_kernel_tables_match_object_layer(p, k):
    F = make_field(p, k)
    kern = get_kernel(p, k, F.modulus)
    els = list(enumerate_field(F))
    assert kern.neg == [(-x).encoding for x in els]
    assert kern.inv[1:] == [x.inv().encoding for x in els[1:]]
    assert kern.frob_table == [x.frobenius(1).encoding for x in els]
    for x in els:
        assert kern.add[x.encoding] == [(x + y).encoding for y in els]
        assert kern.mul[x.encoding] == [(x * y).encoding for y in els]


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x - 2)(x + 2) over F_5, so F_5[x]/(x^2 + 1) is not a field
    with pytest.raises(ValueError, match="not a field"):
        get_kernel(5, 2, (1, 0, 1))


@pytest.mark.parametrize("p,k", FIELDS)
def test_kernel_matches_object_layer_on_random_curves(p, k):
    F = make_field(p, k)
    e = (p - 1) // 2
    rng = random.Random(100 * p + k)
    kern = get_kernel(p, k, F.modulus)
    for _ in range(150):
        deg = rng.choice([3, 5, 7, 9])
        g = (deg - 1) // 2
        enc = [rng.randrange(F.order) for _ in range(deg)] + [
            rng.randrange(1, F.order)
        ]
        f = Poly.from_ints(F, enc)
        assert kern.is_squarefree(list(enc)) == is_squarefree(f)

        kappa = kern.poly_pow(list(enc), e) if e > 1 else list(enc)
        assert kappa == [c.encoding for c in half_power(f).coeffs]

        curve = make_curve(f)
        m = cartier_matrix(curve)
        rows = matrix_rows(kappa, g, p)
        assert rows == [[x.encoding for x in row] for row in m.entries]
        assert kern.rank([r[:] for r in rows]) == obj_rank(m)
        assert kern.p_rank(rows, g) == obj_p_rank(curve)

        # prefilter rows must be the true first and last matrix rows
        r1, rg = end_rows(kern, list(enc), g)
        assert r1 == rows[0]
        assert rg == rows[-1]
        # and a prefilter rejection must be a genuine rank >= 2 proof
        if not rows_could_be_rank_le_1(kern, r1, rg):
            assert obj_rank(m) >= 2


def test_kernel_exhaustive_over_f3_degree5():
    F = make_field(3)
    kern = get_kernel(3, 1, F.modulus)
    for cs in itertools.product(range(3), repeat=5):
        enc = [*cs, 1]
        f = Poly.from_ints(F, enc)
        assert kern.is_squarefree(list(enc)) == is_squarefree(f), enc


@pytest.mark.parametrize("p,k", FIELDS)
def test_kernel_products_match_object_layer(p, k):
    F = make_field(p, k)
    kern = get_kernel(p, k, F.modulus)
    rng = random.Random(9 + 100 * p + k)
    for _ in range(200):
        a = [rng.randrange(F.order) for _ in range(rng.randrange(1, 9))]
        b = [rng.randrange(F.order) for _ in range(rng.randrange(1, 9))]
        n = rng.randrange(1, 12)
        e = rng.randrange(1, 8)
        pa, pb = Poly.from_ints(F, a), Poly.from_ints(F, b)
        full = len(a) + len(b) - 1
        assert kern.poly_mul(a, b) == _encodings(pa * pb, full)
        assert kern.poly_mul_trunc(a, b, n) == _encodings(pa * pb, min(n, full))
        assert kern.poly_pow_trunc(a, e, n) == _encodings(
            pa**e, min(n, e * (len(a) - 1) + 1)
        )
        assert kern.poly_pow(a, e) == _encodings(pa**e, e * (len(a) - 1) + 1)


def test_scan_counts_match_object_brute_force():
    # full pipeline vs a straight object-layer loop over the same family
    from cartier import invariants, monic_odd_family
    from cartier.search import _make_tasks, DEFAULT_BUDGET

    for (p, k, genus) in [(3, 1, 2), (3, 2, 2)]:
        F = make_field(p, k)
        by_a = {}
        n_sq = 0
        degree = 2 * genus + 1
        for cs in itertools.product(range(F.order), repeat=degree - 1):
            f = Poly.from_ints(F, [0, *cs, 1])
            inv = invariants(f)
            if inv.smooth:
                n_sq += 1
                by_a[inv.a_number] = by_a.get(inv.a_number, 0) + 1
        for target in range(genus + 1):
            spec = monic_odd_family(F, genus, target_a=target, require_smooth=True)
            tasks = _make_tasks(spec, DEFAULT_BUDGET)
            res = [scan(t) for t in tasks]
            total = sum(r["p_rank_matched"] for r in res)
            assert total == by_a.get(target, 0), (p, k, target)
            assert sum(r["squarefree"] for r in res) == n_sq
