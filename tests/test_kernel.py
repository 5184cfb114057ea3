"""Differential tests: the integer-encoded search kernel against the object
layer, which is the reference implementation."""

import itertools
import json
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path
from unittest import mock

import pytest

from cartier import (
    Poly,
    SearchSpec,
    cartier_matrix,
    enumerate_field,
    half_power,
    invariants,
    is_squarefree,
    make_curve,
    make_field,
    monic_odd_family,
    parse_poly,
    run_search,
)
from cartier import _columns, _kernel
from cartier._kernel import (
    TableKernel,
    _cofactor_split,
    _irreducibles,
    end_row_windows,
    end_rows,
    get_kernel,
    kronecker_lane,
    matrix_rows,
    rank_one_survivors,
    rows_could_be_rank_le_1,
    squarefree_count,
    squarefree_test,
)
from cartier.cli import main
from cartier.invariants import p_rank as obj_p_rank
from cartier.invariants import rank as obj_rank
from cartier.search import DEFAULT_BUDGET, _affine_form, _make_tasks

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (7, 2)]
ROOT = Path(__file__).resolve().parents[1]


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


def _reference_matrix_rows(kappa, g, p):
    # entry by entry, each index bounds-checked
    n = len(kappa)
    return [
        [kappa[p * i - j] if 0 <= p * i - j < n else 0 for j in range(1, g + 1)]
        for i in range(1, g + 1)
    ]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_matrix_rows_match_the_entrywise_reference(p):
    rng = random.Random(4100 + p)
    for g in range(1, 9):
        # kappa from empty through past p*g, so rows run off either end
        for n in range(0, p * g + g + 3):
            kappa = [rng.randrange(1, p) for _ in range(n)]
            assert matrix_rows(kappa, g, p) == _reference_matrix_rows(kappa, g, p)


def _check_curve_against_object_layer(kern, F, enc):
    p = F.p
    e = (p - 1) // 2
    g = (len(enc) - 2) // 2
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
    assert r1 == rows[0], enc
    assert rg == rows[-1], enc
    # and a prefilter rejection must be a genuine rank >= 2 proof
    if not rows_could_be_rank_le_1(kern, r1, rg):
        assert obj_rank(m) >= 2


@pytest.mark.parametrize("p,k", FIELDS + [(11, 1)])
def test_kernel_matches_object_layer_on_random_curves(p, k):
    F = make_field(p, k)
    rng = random.Random(100 * p + k)
    kern = get_kernel(p, k, F.modulus)
    for _ in range(150):
        deg = rng.choice([3, 5, 7, 9])
        enc = [rng.randrange(F.order) for _ in range(deg)] + [
            rng.randrange(1, F.order)
        ]
        _check_curve_against_object_layer(kern, F, enc)
    # v low zeros, where row 1 is x^(ev) (f/x^v)^e below x^p: f[0] = 0,
    # f[0] = f[1] = 0, f[:3] = 0 and f[:p] = 0 (degree p + 2 reaches past
    # x^p).  At p = 11, e = 5, so row 1 is zero once v >= 3
    for v in [1, 2, 3, p]:
        for _ in range(20):
            deg = rng.choice([d for d in [3, 5, 7, 9, p + 2] if d > v])
            enc = [0] * v + [rng.randrange(F.order) for _ in range(deg - v)] + [
                rng.randrange(1, F.order)
            ]
            _check_curve_against_object_layer(kern, F, enc)


@pytest.mark.parametrize(
    "p,k", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (3, 3), (7, 2)]
)
def test_poly_pow_low_matches_object_layer(p, k):
    # the end rows' truncated power poly_pow(a, e, n) against Poly ** e below
    # x^n, zero-padded to n, for every n up to 2p + 1 (past x^p, where a
    # recurrence dividing by m < p would stop), a both shorter and longer
    # than n, with a[0] = 0 too, and the empty a: by Kronecker substitution
    # over F_p where a lane holds the window, by tables otherwise
    F = make_field(p, k)
    kern = get_kernel(p, k, F.modulus)
    rng = random.Random(7 * p + k)
    for length in range(1, p + 3):
        for a0 in (0, rng.randrange(1, F.order)):
            a = [a0] + [rng.randrange(F.order) for _ in range(length - 1)]
            for e in {1, 2, (p - 1) // 2, rng.randrange(1, 9)}:
                power = Poly.from_ints(F, a) ** e
                for n in range(2 * p + 2):
                    expected = _encodings(power, n)
                    assert kern.poly_pow(a, e, n) == expected, (a, e, n)
    # the empty window of a zero row 1
    for e, n in itertools.product(range(1, 9), range(2 * p + 2)):
        assert kern.poly_pow([], e, n) == [0] * n


@pytest.mark.parametrize(
    "p, k, degree",
    # at p | deg f, f' drops two or more degrees below f, so the first Euclid
    # step divides by more than one degree
    [(3, 1, 5), (3, 1, 6), (5, 1, 5), (3, 2, 3)],
)
def test_kernel_squarefree_exhaustive(p, k, degree):
    F = make_field(p, k)
    kern = get_kernel(p, k, F.modulus)
    for cs in itertools.product(range(F.order), repeat=degree):
        enc = [*cs, 1]
        f = Poly.from_ints(F, enc)
        assert kern.is_squarefree(list(enc)) == is_squarefree(f), enc


def test_kernel_squarefree_on_square_multiples_over_f49():
    # h^2 w is never squarefree, and a remainder of its Euclid sequence can
    # drop two or more degrees anywhere
    F = make_field(7, 2)
    kern = get_kernel(7, 2, F.modulus)
    rng = random.Random(49)
    for _ in range(400):
        h = [rng.randrange(F.order) for _ in range(rng.randrange(1, 4))] + [1]
        w = [rng.randrange(F.order) for _ in range(rng.randrange(0, 6))] + [
            rng.randrange(1, F.order)
        ]
        hh = kern.poly_mul_trunc(h, h, 2 * len(h) - 1)
        enc = kern.poly_mul_trunc(hh, w, len(hh) + len(w) - 1)
        f = Poly.from_ints(F, enc)
        assert not is_squarefree(f)
        assert kern.is_squarefree(list(enc)) == is_squarefree(f), enc


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (3, 2)])
def test_cofactor_squarefree_test_equals_the_product(p, k):
    # every cofactor u of degree <= 3 under factors with no root, distinct
    # roots, a repeated root, an irreducible quadratic part and a constant
    q = p**k
    kern = get_kernel(p, k, make_field(p, k).modulus)
    factors = [
        None, [2], [0, 1], [0, q - 1, 1], [0, 0, 1], [1, 0, 1], [0, 1, 0, 1],
        [1, 2, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1, 1],
    ]
    for factor in factors:
        test = squarefree_test(kern, factor)
        for deg in range(4):
            for low in itertools.product(range(q), repeat=deg):
                for lead in range(1, q):
                    u = [*low, lead]
                    f = u
                    if factor:
                        f = kern.poly_mul_trunc(factor, u, len(factor) + deg)
                    if len(f) >= 2:
                        assert test(u) == kern.is_squarefree(f), (factor, u)


@pytest.mark.parametrize("p, k", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)])
def test_end_row_verdict_is_the_rank_of_the_end_rows(p, k):
    # random f of genus 1..7 with 0..3 low zeros (row 1 is zero once
    # e v >= p), sparse enough that rows are often proportional, and an f
    # whose row 1 is zero for every genus: end_rows are rows 1 and g of the
    # full matrix, and the test passes exactly when the two have rank <= 1
    q = p**k
    e = (p - 1) // 2
    kern = get_kernel(p, k, make_field(p, k).modulus)
    rng = random.Random(p * k)
    verdicts = set()
    for g in range(1, 8):
        fs = [[0] * (p // e + 1) + [1] * (2 * g + 1 - p // e)]
        for v in range(4):
            for _ in range(60):
                f = [0] * v + [
                    rng.randrange(q) if rng.random() < 0.5 else 0
                    for _ in range(2 * g + 1 - v)
                ]
                fs.append((f + [rng.randrange(1, q)])[-(2 * g + 2) :])
        for f in fs:
            rows = matrix_rows(kern.poly_pow(f, e), g, p)
            r1, rg = end_rows(kern, f, g)
            assert (r1, rg) == (rows[0], rows[-1]), (g, f)
            ok = rows_could_be_rank_le_1(kern, r1, rg)
            assert ok == (kern.rank([r1[:], rg[:]]) <= 1), (g, f)
            verdicts.add((ok, any(r1) and any(rg)))
    # a zero row, two proportional nonzero rows and a nonzero minor all occur
    assert verdicts == {(True, False), (True, True), (False, True)}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_end_rows_read_only_their_windows(p):
    # the one window rule the scalar test, the join and the column pass
    # share: with f[:v] = 0, a coefficient strictly between row 1's window
    # and row g's changes neither end row of the full matrix, and row 1's
    # series has exactly the window's width n = p - ev terms at f's own
    # low-zero count v
    kern = _kern(p, 1)
    e = (p - 1) // 2
    rng = random.Random(p)

    def full_end_rows(f, g):
        rows = matrix_rows(kern.poly_pow(f, e), g, p)
        return rows[0], rows[-1]

    perturbed = 0
    for g, v in itertools.product(range(2, 7), range(3)):
        for _ in range(30):
            f = [0] * v + [rng.randrange(p) for _ in range(2 * g + 1 - v)]
            f.append(rng.randrange(1, p))
            rows = end_rows(kern, f, g)
            assert rows == full_end_rows(f, g), f
            row1, rowg = end_row_windows(p, v, len(f))
            for i in range(row1.stop, rowg.start):
                changed = list(f)
                changed[i] = (f[i] + rng.randrange(1, p)) % p
                assert full_end_rows(changed, g) == rows, (g, v, f, i)
                assert end_rows(kern, changed, g) == rows, (g, v, f, i)
                perturbed += 1
            low = next(i for i, x in enumerate(f) if x)
            row1 = end_row_windows(p, low, len(f))[0]
            n = row1.stop - row1.start
            series = kern.poly_pow(f[row1], e, n)
            assert len(series) == n == max(0, p - e * low), f
            assert rows[0] == (series[::-1] + [0] * g)[:g], f
    assert perturbed


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
        assert kern.poly_mul_trunc(a, b, full) == _encodings(pa * pb, full)
        assert kern.poly_mul_trunc(a, b, n) == _encodings(pa * pb, min(n, full))
        assert kern.poly_pow_trunc(a, e, n) == _encodings(
            pa**e, min(n, e * (len(a) - 1) + 1)
        )
        assert kern.poly_pow(a, e) == _encodings(pa**e, e * (len(a) - 1) + 1)
        # a^0 = 1 for every a, the zero polynomial too
        assert kern.poly_pow_trunc(a, 0, n) == kern.poly_pow(a, 0) == [1]


@pytest.mark.parametrize(
    "p,n,e,size",
    [
        # B = n^(e-1) (p-1)^e bounds the unreduced coefficients of a^e
        (5, 15, 2, 1),  # B = 240
        (5, 16, 2, 2),  # B = 256, which (4 + 4x + ... + 4x^15)^2 reaches
        (17, 1, 2, 2),  # B = 256 = 16^2
        (5, 31, 3, 2),  # B = 61 504
        (5, 32, 3, 4),  # B = 2^16
        (5, 15, 6, 4),  # B = 3.1 * 10^9
        (5, 16, 6, 8),  # B = 2^32
        (17, 2, 12, 8),  # B = 2^59
        (3, 3, 22, 8),  # B = 4.4 * 10^16
        (17, 2, 13, 0),  # B = 2^64: tables
        (3, 4, 22, 0),  # B = 2^64
        (131, 6, 65, 0),  # the half power at p = 131
        (5, 4, 0, 0),  # 1, by the tables
        (131, 4, 1, 0),  # a copy of a, by the tables
    ],
)
def test_kronecker_power_at_lane_boundaries(p, n, e, size):
    F = make_field(p)
    kern = get_kernel(p, 1, F.modulus)
    assert kronecker_lane(p, n, e) == size
    rng = random.Random(p * n * e)
    inputs = [
        [p - 1] * n,  # the largest unreduced coefficients
        [rng.randrange(p) for _ in range(n)],
        [0] * (n // 2) + [rng.randrange(1, p) for _ in range(n - n // 2)],
        [rng.randrange(1, p) for _ in range(n - n // 2)] + [0] * (n // 2),
        [0] * n,
    ]
    full = (n - 1) * e + 1
    for a in inputs:
        power = kern.poly_pow(a, e)
        assert power is not a
        assert power == kern.poly_pow_trunc(a, e, full), a
        assert power == _encodings(Poly.from_ints(F, a) ** e, full), a


def test_witness_heavy_report_is_the_same_by_tables(capsys, monkeypatch):
    # the benchmark's witness-heavy search: a = 1 and p-rank 2 at p = 7,
    # genus 3, where every squarefree candidate's half power is a cube by
    # Kronecker substitution, and its whole report with the tables instead
    argv = [
        "search", "--p", "7", "--genus", "3", "--fix", "c0=0,c1=1,c2=1,c7=1",
        "--exhaustive", "--require-smooth", "--target-a", "1",
        "--target-p-rank", "2", "--limit", "100000000", "--threads", "1",
    ]
    assert kronecker_lane(7, 8, 3) == 2
    assert main(argv) == 0
    by_kronecker = capsys.readouterr().out
    monkeypatch.setattr(
        TableKernel,
        "poly_pow",
        lambda self, a, e: self.poly_pow_trunc(a, e, (len(a) - 1) * e + 1),
    )
    assert main(argv) == 0
    by_tables = capsys.readouterr().out
    assert by_tables == by_kronecker
    assert '"matched": 247' in by_kronecker


def test_scan_counts_match_object_brute_force():
    # the whole engine (per-candidate and rank-one paths, the sieve's
    # squarefree count) against a straight object-layer loop.  At p = 3 the
    # half power is f itself; at p = 5 and 7 scan forms it: a = 0 and a = g
    # on the per-candidate path, a = g - 1 on the join's survivors, and a
    # p-rank target with no a target on every squarefree candidate
    for (p, k, genus) in [(3, 1, 2), (3, 2, 2), (5, 1, 2), (7, 1, 2)]:
        F = make_field(p, k)
        by_a = {}
        by_p_rank = {}
        n_sq = 0
        degree = 2 * genus + 1
        for cs in itertools.product(range(F.order), repeat=degree - 1):
            f = Poly.from_ints(F, [0, *cs, 1])
            inv = invariants(f)
            if inv.smooth:
                n_sq += 1
                by_a[inv.a_number] = by_a.get(inv.a_number, 0) + 1
                by_p_rank[inv.p_rank] = by_p_rank.get(inv.p_rank, 0) + 1
        for target in range(genus + 1):
            spec = monic_odd_family(F, genus, target_a=target, require_smooth=True)
            counts = run_search(spec).counts
            assert counts.enumerated == F.order ** (degree - 1)
            assert counts.squarefree == n_sq, (p, k, target)
            assert counts.p_rank_matched == by_a.get(target, 0), (p, k, target)
        assert _sieve(spec) == n_sq
        spec = monic_odd_family(F, genus, target_p_rank=1, require_smooth=True)
        assert run_search(spec).counts.p_rank_matched == by_p_rank.get(1, 0), (p, k)


def _check_join(p, k, degree, fixed, free, factor, survivors, smooth):
    # the whole family's survivors, in enumeration order (top coefficient
    # first, lowest fastest), against a filter of the whole family by the
    # per-candidate end-row test, less x^2 | f when only smooth members count
    spec = _family(p, k, degree, fixed, free, factor)
    kern = get_kernel(p, k, spec.field.modulus)
    factor = [c.encoding for c in spec.factor.coeffs] if factor else None
    u = [0] * (spec.cofactor_degree + 1)
    for idx, el in spec.fixed.items():
        u[idx] = el.encoding
    expected = []
    skipped = 0
    for top_first in itertools.product(range(kern.q), repeat=len(free)):
        for i, v in zip(free[::-1], top_first):
            u[i] = v
        f = kern.poly_mul_trunc(factor, u, len(factor) + len(u) - 1) if factor else u
        if rows_could_be_rank_le_1(kern, *end_rows(kern, f, spec.genus)):
            if smooth and not (f[0] or f[1]):
                skipped += 1
            else:
                expected.append(top_first[::-1])
    # one byte a value below q = 256
    rows = rank_one_survivors(kern, *_affine_form(spec), free, smooth)
    found = [tuple(row) for row in rows]
    assert found == expected
    if survivors is not None:
        assert len(found) == survivors
    return found, skipped


@pytest.mark.parametrize(
    "p, k, degree, fixed, free, factor, survivors",
    [
        # script1-f7 and theorem1-f9
        (7, 1, 9, {0: 0, 1: 1, 2: 1, 3: 1, 9: 1}, (4, 5, 6, 7, 8), None, 42),
        (3, 2, 7, {0: 0, 1: 1, 7: 1}, (2, 3, 4, 5, 6), None, 729),
        # c1 free below a fixed c2: row 1 reads f from x^1 on
        (7, 1, 7, {0: 0, 2: 3, 3: 1, 7: 1}, (1, 4, 5, 6), None, None),
        # rows 1 and g share c2 and c3
        (7, 1, 5, {0: 0, 5: 1}, (1, 2, 3, 4), None, None),
        (7, 1, 7, {0: 1, 5: 1}, (1, 2, 3, 4), "0,6,1", None),
        (5, 1, 7, {0: 0, 7: 1}, (1, 2, 3, 4, 5, 6), None, None),
    ],
)
def test_join_survivors_are_the_proportional_end_rows(
    p, k, degree, fixed, free, factor, survivors
):
    found, _ = _check_join(p, k, degree, fixed, free, factor, survivors, False)
    assert found


@pytest.mark.parametrize(
    "p, k, degree, fixed, free, factor, survivors",
    [
        # g = 6 over F_5 and g = 5 over F_7 with the top value c12 or c10
        # pinned; over F_5 (g >= p, where Theorem 1 leaves no rank-one curve)
        # no member off x^2 | f has proportional end rows
        (5, 1, 13, {0: 0, 4: 1, 6: 0, 8: 3, 10: 1, 12: 2, 13: 1},
         (1, 2, 3, 5, 7, 9, 11), None, 0),
        (7, 1, 11, {0: 0, 4: 1, 6: 2, 7: 0, 10: 3, 11: 1},
         (1, 2, 3, 5, 8, 9), None, 35),
        # c1 free below a fixed c2
        (7, 1, 7, {0: 0, 2: 3, 3: 1, 7: 1}, (1, 4, 5, 6), None, None),
    ],
)
def test_join_survivors_skip_x2_under_require_smooth(
    p, k, degree, fixed, free, factor, survivors
):
    # the same filter less the members x^2 divides, of which there are some
    _, skipped = _check_join(p, k, degree, fixed, free, factor, survivors, True)
    assert skipped


def test_join_rows_take_two_bytes_a_value_past_256(monkeypatch):
    # genus 1 over F_289: the matrix is 1 x 1, so every assignment survives,
    # and its row holds two little-endian bytes a value.  Searches skip the
    # join at genus 1, so the path is forced on for the pieces below
    import cartier.search as search

    monkeypatch.setattr(search, "_plan", lambda spec: (True, "join"))
    spec = _family(17, 2, 3, {0: 0, 3: 1}, (1, 2))
    kern = get_kernel(17, 2, spec.field.modulus)
    rows = list(rank_one_survivors(kern, *_affine_form(spec), spec.free))
    assert rows == [
        c1.to_bytes(2, "little") + c2.to_bytes(2, "little")
        for c2 in range(289)
        for c1 in range(289)
    ]
    # and a piece of them holds the values, ascending free index
    tasks = _make_tasks(spec._replace(target_a=0), DEFAULT_BUDGET)
    assert len(tasks) == -(-(289**2) // 2500)
    assert tasks[0]["draws"].typecode == "H"
    values = [v for c2 in range(289) for c1 in range(289) for v in (c1, c2)]
    assert list(tasks[0]["draws"]) == values[: 2 * 2500]


def test_join_buckets_row1_once_per_window(monkeypatch):
    # the top coefficient c6 lies outside row 1's window f[1:5]; c4 lies in
    # both rows' windows, so row 1's window takes 7 values.  Each is
    # bucketed once over the 7^3 values of c1..c3, not once per value of c6
    import cartier._kernel as _kernel

    spec = _family(7, 1, 7, {0: 0, 7: 1}, (1, 2, 3, 4, 5, 6))
    kern = get_kernel(7, 1, spec.field.modulus)
    real = _kernel._row1
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(_kernel, "_row1", counted)
    assert list(rank_one_survivors(kern, *_affine_form(spec), spec.free))
    assert len(calls) == 7 * 7**3


# -- the squarefree sieve ----------------------------------------------------


def _sieve(spec):
    F = spec.field
    return squarefree_count(get_kernel(F.p, F.k, F.modulus), *_affine_form(spec))


def _per_candidate_squarefree(spec):
    plain = spec._replace(target_a=None, target_p_rank=None)
    return run_search(plain).counts.squarefree


def _family(p, k, degree, fixed, free, factor=None):
    F = make_field(p, k)
    spec = SearchSpec(
        field=F,
        degree=degree,
        fixed={i: F.element(v) for i, v in fixed.items()},
        factor=parse_poly(F, factor) if factor else None,
    )
    assert spec.free == free
    return spec


@pytest.mark.parametrize(
    "p, k, degree, fixed, free, factor, expected",
    [
        # the exhaustive benchmark families: script1-f7, theorem1-f9 and
        # witness-heavy
        (7, 1, 9, {0: 0, 1: 1, 2: 1, 3: 1, 9: 1}, (4, 5, 6, 7, 8), None, 14710),
        (3, 2, 7, {0: 0, 1: 1, 7: 1}, (2, 3, 4, 5, 6), None, 53143),
        (7, 1, 7, {0: 0, 1: 1, 2: 1, 7: 1}, (3, 4, 5, 6), None, 2101),
        # x(x-1)h over F_7
        (7, 1, 7, {5: 1}, (0, 1, 2, 3, 4), "0,6,1", None),
        (7, 1, 9, {0: 3, 1: 0, 2: 5, 7: 1}, (3, 4, 5, 6), "0,6,1", None),
        # F_9 with a fixed factor, and F_25
        (3, 2, 7, {0: 1, 4: 2, 5: 1}, (1, 2, 3), "0,1,1", None),
        (5, 2, 5, {0: 0, 1: 1, 5: 1}, (2, 3, 4), None, None),
        # a factor with coefficients outside F_3: two of the four functionals
        # that cut out the family have five nonzero entries each
        (3, 2, 7, {0: 1, 5: 1}, (1, 2, 3, 4), "[1,1],[0,1],1", None),
        # free coefficients with fixed ones between them, over F_5
        (5, 1, 9, {0: 0, 2: 1, 4: 3, 6: 0, 9: 1}, (1, 3, 5, 7, 8), None, None),
    ],
)
def test_sieve_matches_per_candidate_count(p, k, degree, fixed, free, factor, expected):
    spec = _family(p, k, degree, fixed, free, factor)
    count = _sieve(spec)
    assert count == _per_candidate_squarefree(spec)
    if expected is not None:
        assert count == expected


def test_sieve_matches_object_layer_count():
    # the degree-9 x(x-1)h family over F_7 (7^4 members) and an F_9 family
    # whose functionals are dense (9^3) against the object layer's
    # squarefree test, which shares no code with the sieve or scan
    for spec in [
        _family(7, 1, 9, {0: 3, 1: 0, 2: 5, 7: 1}, (3, 4, 5, 6), "0,6,1"),
        _family(3, 2, 7, {0: 1, 4: 2, 5: 1}, (1, 2, 3), "[1,1],[0,1],1"),
    ]:
        F = spec.field
        f0, basis = _affine_form(spec)
        count = 0
        for cs in itertools.product(list(enumerate_field(F)), repeat=len(basis)):
            f = Poly.from_ints(F, f0)
            for c, b in zip(cs, basis):
                f = f + Poly.from_ints(F, b) * c
            count += is_squarefree(f)
        assert _sieve(spec) == count


def _monic_squarefree_off_x(q, n):
    """Monic squarefree h of degree n over F_q with h(0) != 0: there are
    q^n - q^(n-1) squarefree monic h of degree n >= 2 (q of degree 1), and
    those with x | h are x times one of degree n - 1 with h(0) != 0."""
    count = 1
    for d in range(1, n + 1):
        count = (q if d == 1 else q**d - q ** (d - 1)) - count
    return count


@pytest.mark.parametrize(
    "p, k, genus, expected",
    [
        (3, 1, 2, 40),
        (5, 1, 3, None),
        (3, 2, 3, None),
        (7, 1, 4, 4323600),
        (7, 1, 5, 211856436),
        (5, 1, 6, 162760416),
        (3, 1, 8, 21523360),
    ],
)
def test_sieve_matches_closed_form(p, k, genus, expected):
    # f = x h with h monic of degree 2g: f is squarefree iff h is and h(0) != 0;
    # 7^8 is the script-1 family, 7^10 criterion 8's, and 5^12 and 3^16 are
    # Theorem 1's at g = 6 and g = 8
    spec = monic_odd_family(make_field(p, k), genus)
    count = _monic_squarefree_off_x(p**k, 2 * genus)
    assert _sieve(spec) == count
    assert expected in (None, count)


def _moebius(n):
    sign = 1
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
    return sign


@pytest.mark.parametrize(
    "p, k, top",
    [(3, 1, 8), (5, 1, 6), (7, 1, 5), (3, 2, 4), (5, 2, 4), (7, 2, 3), (17, 2, 2)],
)
def test_irreducible_counts_match_gauss(p, k, top):
    # Gauss's count of the monic irreducibles of degree d over F_q,
    # (1/d) sum_{e | d} mu(d/e) q^e, which shares no code with the sieve;
    # past q = 256 the root pass holds two bytes a value.  A count can be
    # right with the wrong monics, so a seeded sample of each degree d >= 2
    # is checked through the object layer for a root in F_q (exact at d <= 3)
    q = p**k
    F = make_field(p, k)
    kern = get_kernel(p, k, F.modulus)
    elements = list(enumerate_field(F))
    rng = random.Random(q * top)
    found = [list(hs) for hs in _irreducibles(kern, top)]
    for d, hs in enumerate(found, 1):
        gauss = sum(_moebius(d // e) * q**e for e in range(1, d + 1) if d % e == 0)
        assert len(hs) * d == gauss, (q, d)
        assert all(len(h) == d + 1 and h[-1] == 1 for h in hs)
        index = [sum(c * q**i for i, c in enumerate(h[:-1])) for h in hs]
        assert index == sorted(set(index))
        for h in rng.sample(hs, min(len(hs), 40)) if d >= 2 else []:
            poly = Poly.from_ints(F, h)
            assert all(poly(x) for x in elements), (q, h)
    assert len(found) == top


# ---------------------------------------------------------------------------
# the column pass: byte lanes against the kernel's tables and the scalar path

LANE_FIELDS = [
    (p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
] + [(3, 2), (5, 2), (7, 2)]


def _kern(p, k):
    return get_kernel(p, k, make_field(p, k).modulus)


def _lanes(p, k):
    kern = _kern(p, k)
    assert kern.byte_lanes
    return kern, _columns.lanes_for(kern)


@pytest.mark.parametrize("p, k", LANE_FIELDS)
def test_column_ops_match_the_kernel_tables(p, k):
    # lane i holds the i-th of all q^2 pairs (x, y)
    kern, L = _lanes(p, k)
    q = kern.q
    xs = [x for x in range(q) for _ in range(q)]
    ys = list(range(q)) * q
    a = bytes(xs).translate(L.encode)
    b = bytes(ys).translate(L.encode)

    def decoded(col):
        return list(col.translate(L.decode))

    assert decoded(a) == xs and decoded(L.column(q - 1, 3)) == [q - 1] * 3
    assert decoded(L.add(a, b)) == [kern.add[x][y] for x, y in zip(xs, ys)]
    assert decoded(L.neg(a)) == [kern.neg[x] for x in xs]
    difference = [kern.add[x][kern.neg[y]] for x, y in zip(xs, ys)]
    assert decoded(L.add(a, L.neg(b))) == difference
    assert decoded(L.inv(a)) == [kern.inv[x] for x in xs]
    assert decoded(L.mul(a, b)) == [kern.mul[x][y] for x, y in zip(xs, ys)]
    for c in range(q):
        assert decoded(L.scale(a, c)) == [kern.mul[c][x] for x in xs]
    for c in {0, 1, q - 1, kern.exp[1]}:
        product = [kern.mul[c][kern.mul[x][y]] for x, y in zip(xs, ys)]
        assert decoded(L.exp(L.log(a) + L.log(b), len(a), c)) == product
    zeros = L.zeros(a).to_bytes(len(a), "little")
    assert list(zeros) == [int(x == 0) for x in xs]


@pytest.mark.parametrize("p, k", [(3, 3), (3, 4), (5, 3), (11, 2), (67, 1), (71, 1)])
def test_fields_without_byte_lanes_skip_the_pass(p, k):
    # F_27, F_81, F_125 and F_121 need more than 8 bits of coordinates;
    # from p = 67 on, two logs can add past 255
    assert not _kern(p, k).byte_lanes


def _piece(spec, values):
    """A piece of the random search ``spec`` holding the given cofactor
    values (ascending free index), one candidate each."""
    task = _make_tasks(spec._replace(samples=1), DEFAULT_BUDGET)[0]
    draws = array("B", [v for vals in values for v in vals])
    return dict(task, draws=draws, count=len(draws) // len(task["free"]))


def _check_lanes(kern, task):
    """Every lane's product, every verdict the pass decided and its end-row
    series against the scalar path; returns the lanes' (u, f, squarefree,
    rows pass) with the pass's verdicts, None where undecided."""
    degree = task["degree"]
    factor = task["factor"]
    u0 = [0] * (degree + 1 - (len(factor) - 1 if factor else 0))
    for i, x in task["fixed"]:
        u0[i] = x
    L = _columns.lanes_for(kern)
    calls = []  # every (window's columns, n, series) the pass forms
    series = _columns.series

    def recorded(L, a, e, n):
        out = series(L, a, e, n)
        calls.append((a, n, out))
        return out

    with mock.patch.object(_columns, "series", recorded):
        codes, f_cols = _columns.lane_codes(L, task, u0)
    sq_test = squarefree_test(kern, factor)
    nf = len(task["free"])
    lanes = []
    for lane, code in enumerate(codes):
        u = list(u0)
        for i, x in zip(task["free"], task["draws"][lane * nf : lane * nf + nf]):
            u[i] = x
        f = kern.poly_mul_trunc(factor, u, degree + 1) if factor else u
        assert [col[lane] for col in f_cols] == [L.form[x] for x in f]
        sq, ok, _ = _columns._verdicts(code, task["require_smooth"])
        if sq is not None:
            assert sq == sq_test(u), u
        if ok is not None:
            rows = end_rows(kern, f, (degree - 1) // 2)
            assert ok == rows_could_be_rank_le_1(kern, *rows), f
        lanes.append((u, f, sq, ok))
    # the pass's series, by Miller's recurrence on the lanes: on the windows
    # ``end_row_windows`` names, row g's first, and equal to the kernel's
    # power of each lane's window wherever the window's a_0 != 0
    p = kern.char
    e = (p - 1) // 2
    v = next(i for i, col in enumerate(f_cols) if any(col))
    row1, rowg = end_row_windows(p, v, degree + 1)
    windows = [(f_cols[rowg][::-1], e + 1)]
    if f_cols[row1]:
        windows.append((f_cols[row1], row1.stop - v))
    assert [(a, n) for a, n, _ in calls] == windows
    for a, n, (terms, undecided) in calls:
        assert len(terms) == n
        undecided = undecided.to_bytes(len(codes), "little")
        window = zip(*[col.translate(L.decode) for col in a])
        values = zip(*[col.translate(L.decode) for col in terms])
        for w, c, a0_zero in zip(window, values, undecided):
            assert a0_zero == (w[0] == 0), w
            if not a0_zero:
                assert list(c) == kern.poly_pow(list(w), e, n), (w, n)
    return lanes


# (p, k, genus, fixed, factor): cofactor values as encodings
PASS_FAMILIES = [
    (7, 2, 4, {7: 1}, [0, 6, 1]),  # script 2: x(x - 1) u over F_49
    (5, 1, 3, {0: 0, 7: 1}, None),
    (5, 2, 3, {7: 1}, None),
    (7, 1, 3, {4: 1}, [0, 1, 0, 1]),  # x(x^2 + 1): N = x^2 + 1
    (11, 1, 2, {5: 1}, None),
    (13, 1, 4, {0: 0, 9: 1}, None),
    (61, 1, 2, {0: 0, 5: 1}, None),
]


@pytest.mark.parametrize("p, k, genus, fixed, factor", PASS_FAMILIES)
def test_column_pass_verdicts_equal_the_scalar_path(p, k, genus, fixed, factor):
    # seeded random pieces with the prefilter on, with and without a factor
    # and a low zero, genus 2 (one minor) to 4
    F = make_field(p, k)
    kern = get_kernel(p, k, F.modulus)
    spec = SearchSpec(
        field=F,
        degree=2 * genus + 1,
        fixed={i: F.from_encoding(x) for i, x in fixed.items()},
        samples=2500,
        seed=p * k + genus,
        target_a=genus - 1,
        factor=Poly.from_ints(F, factor) if factor else None,
    )
    (task,) = _make_tasks(spec, DEFAULT_BUDGET)
    assert task["prefilter"] and task["count_squarefree"]
    lanes = _check_lanes(kern, task)
    assert {sq for _, _, sq, _ in lanes} >= {True, False}
    assert {ok for _, _, _, ok in lanes} >= {False, None}


def _shifted_gcd(kern, a, b, shifts):
    """Euclid on one lane, as the column pass runs it with the given shifts:
    (True where gcd(a, b) = 1, False where it is not, None where undecided;
    the shifts taken).  Each remainder is kept one entry shorter than its
    divisor; a divisor with a zero top is multiplied by x - s for the first
    s of ``shifts`` with a(s) != 0 until its top is nonzero.  A zero divisor
    or a root s of both a and b decides False, and a divisor whose every s
    is a root of a alone leaves the lane undecided."""
    add, mul, neg, inv = kern.add, kern.mul, kern.neg, kern.inv

    def value(c, s):
        acc = 0
        for x in reversed(c):
            acc = add[mul[s][acc]][x]
        return acc

    a, b = list(a), list(b)
    taken = []
    while True:
        if not b[-1]:
            if not any(b):
                return False, taken
            s = next((s for s in shifts if value(a, s) or not value(b, s)), None)
            if s is None:
                return None, taken
            if not value(a, s):
                return False, taken
            taken.append(s)
            while not b[-1]:
                b = [add[x][neg[mul[s][y]]] for x, y in zip([0, *b], b)]
        db = len(b) - 1
        if not db:
            return True, taken
        for i in range(len(a) - 1 - db, -1, -1):
            c = mul[a[db + i]][inv[b[-1]]]
            for j in range(db):
                a[i + j] = add[a[i + j]][neg[mul[c][b[j]]]]
        a, b = b, a[:db]


def _gate_model(kern, factor, us):
    """Each cofactor's gate verdict as the column pass decides it on a
    piece holding the cofactors us (None where it leaves the lane to the
    scalar test), from ``_shifted_gcd``: a root of the factor decides False;
    then Euclid against N and against u' (its top entries dropped while
    they are zero in every lane, down to one), by x alone, and again with
    every shift of F_q for the lanes left undecided when at least
    ``_PACKED_LANES`` of them are; then the shifts each lane took."""
    add, mul = kern.add, kern.mul
    roots, rest = _cofactor_split(kern, factor)
    p = kern.char

    def vanishes(u, r):
        acc = 0
        for x in reversed(u):
            acc = add[mul[r][acc]][x]
        return not acc

    derivatives = [[i * x % p for i, x in enumerate(u)][1:] for u in us]
    while len(derivatives[0]) > 1 and not any(d[-1] for d in derivatives):
        for d in derivatives:
            d.pop()
    verdicts = [{False} if any(vanishes(u, r) for r in roots) else set() for u in us]
    taken = [[] for _ in us]
    for divisors in ([rest] * len(us), derivatives):
        runs = [_shifted_gcd(kern, u, b, (0,)) for u, b in zip(us, divisors)]
        if sum(v is None for v, _ in runs) >= _columns._PACKED_LANES:
            runs = [
                _shifted_gcd(kern, u, b, range(kern.q)) if v is None else (v, t)
                for u, b, (v, t) in zip(us, divisors, runs)
            ]
        for lane, (v, t) in enumerate(runs):
            verdicts[lane].add(v)
            taken[lane] += t
    gate = [False if False in v else None if None in v else True for v in verdicts]
    return gate, taken


def _gate_lanes(kern, spec, values):
    """The pass's lanes on a piece of ``spec`` holding the given cofactor
    values, checked by ``_check_lanes``, each lane's gate verdict equal to
    ``_gate_model``'s; returns the lanes and the shifts each took."""
    task = _piece(spec, values)
    lanes = _check_lanes(kern, task)
    us = [u for u, _, _, _ in lanes]
    model, taken = _gate_model(kern, task["factor"], us)
    for (u, _, sq, _), verdict in zip(lanes, model):
        assert sq == verdict, u
    return lanes, taken


def test_column_gate_decides_every_monic_quintic_over_f5():
    # every monic cofactor of degree 5 over F_5: u' = 4 c4 x^3 + ... is one
    # column short, so divisors with a zero top are shifted by x or, where
    # the dividend vanishes at 0, by x - 1 and on.  Only u = x^5 - x, whose
    # u' = -1 meets a dividend with every root, is left open; u = x^5 + c
    # (u' = 0) is decided out
    F = make_field(5)
    kern = get_kernel(5, 1, F.modulus)
    spec = SearchSpec(field=F, degree=5, fixed={5: F.one}, samples=1, seed=1)
    lanes, taken = _gate_lanes(kern, spec, itertools.product(range(5), repeat=5))
    assert [u for u, _, sq, _ in lanes if sq is None] == [[0, 4, 0, 0, 0, 1]]
    assert {sq for _, _, sq, _ in lanes} == {True, False, None}
    assert {s for t in taken for s in t} == {0, 1, 2, 3}
    for u, _, sq, _ in lanes:
        if not any(u[1:5]):
            assert sq is False


def test_column_gate_under_a_factor_with_rest():
    # F = x (x^2 + 1) over F_7: the root 0 decides lanes out, and gcd(u, N)
    # and gcd(u, u') shift divisors with a zero top (N is irreducible, so a
    # remainder u mod N that is a constant is a unit and one that is zero
    # puts the lane out); no lane is left open
    F = make_field(7)
    kern = get_kernel(7, 1, F.modulus)
    spec = SearchSpec(
        field=F, degree=7, fixed={4: F.one}, samples=1, seed=1,
        factor=Poly.from_ints(F, [0, 1, 0, 1]),
    )
    lanes, taken = _gate_lanes(kern, spec, itertools.product(range(7), repeat=4))
    assert {sq for _, _, sq, _ in lanes} == {True, False}
    assert {s for t in taken for s in t} == {0, 1, 2}
    for u, _, sq, _ in lanes:
        if not u[0]:
            assert sq is False


def test_column_gate_with_u_prime_zero_in_every_lane():
    # u = x^5 + c over F_5 has u' = 0: gcd(u, 0) = u, so the gate decides
    # every lane out, and the scalar test finds none squarefree
    F = make_field(5)
    kern = get_kernel(5, 1, F.modulus)
    fixed = {i: F.zero for i in range(1, 5)} | {5: F.one}
    spec = SearchSpec(field=F, degree=5, fixed=fixed, samples=1, seed=1)
    lanes, _ = _gate_lanes(kern, spec, [(c,) for c in range(5)] * 120)
    assert {sq for _, _, sq, _ in lanes} == {False}
    test = squarefree_test(kern, None)
    assert not any(test(u) for u, _, _, _ in lanes)


def test_column_gate_with_a_root_at_zero_in_every_lane():
    # genus 4 over F_7 with c0 = 0: u(0) = 0 in every lane, so every divisor
    # shifted by x makes the next dividend vanish at 0 too; the lanes the
    # shift by x leaves open run again with every shift, and none is left
    F = make_field(7)
    kern = get_kernel(7, 1, F.modulus)
    spec = SearchSpec(
        field=F, degree=9, fixed={0: F.zero, 9: F.one}, samples=1, seed=1,
        require_smooth=True, target_a=3,
    )
    rng = random.Random(7)
    values = [[rng.randrange(7) for _ in range(8)] for _ in range(2500)]
    lanes, taken = _gate_lanes(kern, spec, values)
    assert {sq for _, _, sq, _ in lanes} == {True, False}
    assert {s for t in taken for s in t} == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("shifts", [(0,), (0, 1), range(7)])
def test_shifted_euclid_matches_the_scalar_model(shifts):
    # the lanes' Euclid with each set of shifts, against the model lane by
    # lane: u against u' for monic u of degree 6 over F_7 with u(0) = 0
    # (every lane) or not, and u against x^2 + 1
    F = make_field(7)
    kern = get_kernel(7, 1, F.modulus)
    L = _columns.lanes_for(kern)
    rng = random.Random(3)
    us = [[rng.randrange(7) * (i > 0 or lane % 2) for i in range(6)] + [1]
          for lane in range(1500)]
    u_cols = [bytes(L.form[u[i]] for u in us) for i in range(7)]
    derivative = lambda u: [i * x % 7 for i, x in enumerate(u)][1:]  # noqa: E731
    # only u' leaves lanes open, and only with fewer shifts than F_7 has
    for divisor, opens in ((derivative, len(shifts) < 7), (lambda u: [1, 0, 1], False)):
        b_cols = [bytes(L.form[x] for x in col) for col in zip(*map(divisor, us))]
        out, undecided = _columns._euclid(L, u_cols, b_cols, shifts)
        out = out.to_bytes(len(us), "little")
        undecided = undecided.to_bytes(len(us), "little")
        verdicts = [_shifted_gcd(kern, u, divisor(u), shifts)[0] for u in us]
        assert list(out) == [v is False for v in verdicts]
        assert list(undecided) == [v is None for v in verdicts]
        assert False in verdicts and (None in verdicts) == opens


def _gate_open_lanes(argv):
    """(the lanes the gate leaves open, the lanes) over the pieces of a
    serial CLI search."""
    tasks = []
    real = _kernel.scan

    def scan(task):
        tasks.append(task)
        return real(task)

    with mock.patch.object(_kernel, "scan", scan):
        assert main([*argv, "--threads", "1"]) == 0
    open_lanes = 0
    for task in tasks:
        kern = get_kernel(task["p"], task["k"], tuple(task["modulus"]))
        factor = task["factor"]
        u = [0] * (task["degree"] + 1 - (len(factor) - 1 if factor else 0))
        for i, x in task["fixed"]:
            u[i] = x
        codes, _ = _columns.lane_codes(_columns.lanes_for(kern), task, u)
        open_lanes += sum(_columns._verdicts(c, True)[0] is None for c in codes)
    return open_lanes, sum(task["count"] for task in tasks)


@pytest.mark.parametrize(
    "argv, open_lanes",
    [
        # script 2: 2 195 lanes before the shifts, 60 by x alone, each piece
        # too few to pack
        (["reproduce", "--script", "2", "--seed", "1", "--samples", "20000"], 60),
        # 14 905 before the shifts, 2 951 by x alone
        ("search --p 7 --genus 4 --fix c0=0,c9=1 --random --samples 20000 --seed 1 "
         "--require-smooth --target-a 3".split(), 0),
    ],
)
def test_column_gate_open_lanes_are_pinned(argv, open_lanes, capsys):
    assert _gate_open_lanes(argv) == (open_lanes, 20000)


@pytest.mark.parametrize("p, fixed, v", [(7, {0: 0, 5: 1}, 1), (11, {5: 1}, 0)])
def test_column_rows_with_a_low_zero_and_a_zero_row_g(p, fixed, v):
    # the genus-2 members with the fixed values (over F_11 every 31st): the
    # end-row test leaves open exactly the lanes with f[v] = 0 (v the
    # family's low zeros), and lanes with a zero row g (its series' c_(e-1)
    # = c_e = 0) pass
    F = make_field(p)
    kern = get_kernel(p, 1, F.modulus)
    spec = SearchSpec(
        field=F, degree=5, fixed={i: F.element(x) for i, x in fixed.items()},
        samples=1, seed=1, target_a=1,
    )
    free = [i for i in range(6) if i not in fixed]
    values = itertools.product(range(p), repeat=len(free))
    if p == 11:
        values = itertools.islice(values, 0, None, 31)
    lanes = _check_lanes(kern, _piece(spec, values))
    zero_rows = 0
    for _, f, _, ok in lanes:
        assert (ok is None) == (f[v] == 0), f
        if not any(end_rows(kern, f, 2)[1]):
            zero_rows += 1
            assert ok in (True, None)
    assert zero_rows


def test_undecided_pass_keeps_the_pinned_reports(capsys, monkeypatch):
    # a pass that leaves every lane open at the gate and the end-row test
    # sends each through the scalar path, which alone must give the reports
    # pinned before the pass existed
    real = _columns.lane_codes
    calls = []

    def undecided(L, task, u):
        codes, f = real(L, task, u)
        calls.append(len(codes))
        return bytes([_columns._GATE_OPEN | _columns._ROWS_OPEN]) * len(codes), f

    monkeypatch.setattr(_columns, "lane_codes", undecided)
    data = Path(__file__).resolve().parent / "data"
    pinned = json.loads((data / "pinned.json").read_text())
    for name in ("script2-seed2", "f5-a2", "f7-factor-a2-smooth", "f25-a2-smooth"):
        for threads in ("1", "2"):
            assert main([*pinned[name], "--threads", threads]) == 0
            assert capsys.readouterr().out == (data / f"{name}.json").read_text()
    assert calls


@pytest.mark.parametrize(
    "genus, family",
    [
        (3, "--p 7 --fix c0=0,c7=1 --samples 5000 --seed 3"),
        (2, "--p 11 --fix c5=1 --require-smooth --samples 3000 --seed 1"),
        (3, "--p 13 --fix c7=1 --require-smooth --samples 3000 --seed 1"),
        (4, "--p 7 --fix c9=1 --samples 3000 --seed 1"),
        (3, "--p 5 --k 2 --factor 0,4,1 --fix c5=1 --require-smooth "
            "--samples 3000 --seed 1"),
    ],
)
def test_column_pass_reports_equal_their_no_prefilter_twins(
    genus, family, capsys, monkeypatch
):
    # rank-one random searches on families no pinned report holds, each
    # taking the pass on a piece of 2500 draws: at one and two threads the
    # report is its --no-prefilter twin's, which runs neither the pass nor
    # the end-row test, once the echoed flag is deleted from both
    argv = ["search", *family.split(), "--genus", str(genus), "--random"]
    argv += ["--target-a", str(genus - 1)]

    def report(*extra):
        assert main([*argv, *extra]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["spec"]["prefilter"]
        return doc

    twin = report("--no-prefilter", "--threads", "1")
    real = _columns.lane_codes
    calls = []
    monkeypatch.setattr(
        _columns, "lane_codes", lambda *args: calls.append(1) or real(*args)
    )
    assert report("--threads", "1") == twin and calls
    assert report("--threads", "2") == twin


def _workload_runs():
    """CLI arguments of each benchmark workload's set-up run and of each
    exhaustive workload run."""
    doc = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    seed = str(doc["default_seed"])
    runs = {}
    for name, wl in doc["workloads"].items():
        runs[f"{name}-setup"] = [a.replace("{seed}", seed) for a in wl["setup_argv"]]
        if "--exhaustive" in wl["argv"]:
            runs[name] = wl["argv"]
    return runs


class TestColumnPassImports:
    """Only a piece of at least ``_COLUMN_LANES`` random draws that runs the
    end-row test over a field with byte lanes loads ``cartier._columns``: no
    benchmark set-up run, no exhaustive run, no search over a field without
    byte lanes and no search that runs the gate alone."""

    # cli.main in a fresh interpreter; the last stderr line says whether the
    # run loaded the pass
    PROBE = (
        "import sys\n"
        "from cartier.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('cartier._columns' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    RUNS = _workload_runs()

    def loads_columns(self, *argv):
        res = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv, "--threads", "1"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert res.returncode == 0, res.stderr
        return res.stderr.splitlines()[-1] == "True"

    PINNED = json.loads((ROOT / "tests" / "data" / "pinned.json").read_text())

    @pytest.mark.parametrize("name", RUNS)
    def test_setup_and_exhaustive_runs_do_not_load_the_pass(self, name):
        assert not self.loads_columns(*self.RUNS[name])

    # F_27 and F_67 have no byte lanes; the a = 1 target in genus 3 over F_5
    # and the a = 0 target over F_25 run the gate alone
    @pytest.mark.parametrize("name", ["f27-a1", "f67-a1-smooth", "f5-a1", "f25-a0"])
    def test_random_searches_without_the_pass_do_not_load_it(self, name):
        assert not self.loads_columns(*self.PINNED[name])

    def test_script2_loads_the_pass(self):
        assert self.loads_columns("reproduce", "--script", "2", "--samples", "600")

    def test_a_rank_one_search_over_f25_loads_the_pass(self):
        assert self.loads_columns(*self.PINNED["f25-a2"])
