"""Oracles outside the kappa = f^((p-1)/2) pipeline and metamorphic
relations: Manin's point-count congruence, the p-rank read off the
L-polynomial of point counts, closed-form counts of supersingular elliptic
curves, the invariants of y^2 = x^(2g+1) + 1 and the squarefree counts of
the monic and depressed families in closed form, Ekedahl's bound on the
genus of a superspecial curve, and invariants that a change of variable, a
twist or a Frobenius twist of the coefficients must keep, checked in the
object layer and in the kernel, down to the counts of search shards that a
scaling of x maps onto each other."""

import functools
import random

import pytest

from cartier import (
    Poly,
    SearchSpec,
    cartier_matrix,
    enumerate_field,
    invariants,
    is_squarefree,
    make_curve,
    make_field,
    run_search,
)
from cartier._kernel import get_kernel, matrix_rows, scan
from cartier.fields import _coord_ops
from cartier.invariants import _matmul
from cartier.search import DEFAULT_BUDGET, _make_tasks, _plan


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


@functools.lru_cache(maxsize=None)
def _extension(F, i):
    """F_{q^i} (q = |F|, default modulus) and the image in it of F's
    generator: a root of F's modulus, found by search."""
    E = make_field(F.p, F.k * i)
    modulus = Poly.from_ints(E, F.modulus)
    return E, next(x for x in enumerate_field(E) if modulus(x).is_zero)


def _count_over_extension(f, i):
    """#C(F_{q^i}) for y^2 = f(x), deg f odd, through the object layer: f is
    carried into F_{q^i} by an embedding of F_q, and each affine x adds 1 or
    2 points when f(x) is zero or a nonzero square, plus one at infinity."""
    F = f.spec
    E, t = _extension(F, i)
    powers = [E.one]
    for _ in range(1, F.k):
        powers.append(powers[-1] * t)

    def embed(c):
        acc = E.zero
        for d, w in zip(c.coords, powers):
            acc = acc + E.element(d) * w
        return acc

    image = Poly(E, [embed(c) for c in f.coeffs])
    elements = list(enumerate_field(E))
    squares = {x * x for x in elements}
    total = 1
    for x in elements:
        v = image(x)
        total += 1 if v.is_zero else 2 if v in squares else 0
    return total


def _l_polynomial_head(f, genus):
    """a_0..a_g of L(T) = 1 + a_1 T + ... from #C(F_{q^i}), i <= g, by
    Newton's identities: s_i = q^i + 1 - #C(F_{q^i}) is the i-th power sum of
    the reciprocal roots."""
    q = f.spec.order
    s = [q**i + 1 - _count_over_extension(f, i) for i in range(1, genus + 1)]
    a = [1]
    for i in range(1, genus + 1):
        total = -sum(s[j - 1] * a[i - j] for j in range(1, i + 1))
        assert total % i == 0
        a.append(total // i)
    return a


def _p_rank_from_counts(f, genus):
    """The p-rank is the degree of L(T) mod p, and only a_0..a_g can be
    nonzero mod p (a_{2g-i} = q^(g-i) a_i)."""
    a = _l_polynomial_head(f, genus)
    return max((i for i in range(genus + 1) if a[i] % f.spec.p), default=0)


@pytest.mark.parametrize(
    "coeffs, head, p_rank",
    [
        ([10, 10, 20, 23, 20, 26, 5, 1], [1, -5, 54, -216], 1),
        ([6, 10, 6, 16, 26, 23, 3, 1], [1, 0, -4, 108], 2),
    ],
)
def test_p_rank_from_point_counts_over_f27(coeffs, head, p_rank):
    # genus 3 over F_27, counted over F_27, F_3^6 and F_3^9: the p-rank (the
    # last a_i not divisible by 3) is the rank of A^(sigma^2) A^(sigma) A,
    # where A A^(sigma) A^(sigma^2) has another rank on these two curves
    F = make_field(3, 3)
    assert F.modulus == (1, 2, 0, 1)
    f = Poly.from_ints(F, coeffs)
    assert _l_polynomial_head(f, 3) == head
    inv = invariants(f)
    assert inv.smooth and inv.p_rank == p_rank
    assert _kernel_invariants(F, f) == (True, inv.rank_a, p_rank)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3)])
def test_p_rank_from_point_counts_genus2(p, k):
    F = make_field(p, k)
    rng = random.Random(9500 + 10 * p + k)
    checked = 0
    while checked < 6:
        f = Poly.from_ints(F, [rng.randrange(F.order) for _ in range(5)] + [1])
        if not is_squarefree(f):
            continue
        p_rank = _p_rank_from_counts(f, 2)
        assert invariants(f).p_rank == p_rank, f.text()
        assert _kernel_invariants(F, f)[2] == p_rank, f.text()
        checked += 1


@pytest.mark.slow
@pytest.mark.parametrize(
    "p, k, genus, curves, p_ranks",
    [(3, 1, 4, 12, {2, 3, 4}), (5, 1, 4, 6, {2, 3, 4}), (5, 2, 3, 1, {3})],
)
def test_p_rank_from_point_counts_past_genus2(p, k, genus, curves, p_ranks):
    # genus 4 over F_3 (counts up to F_81) and F_5 (up to F_625), and one
    # genus-3 curve over F_25 (up to F_{5^6}): both layers' p-ranks against
    # the L-polynomial's, on seeded squarefree curves whose p-ranks vary
    F = make_field(p, k)
    rng = random.Random(41 + p * k)
    seen = []
    while len(seen) < curves:
        enc = [rng.randrange(F.order) for _ in range(2 * genus + 1)] + [1]
        f = Poly.from_ints(F, enc)
        if not is_squarefree(f):
            continue
        p_rank = _p_rank_from_counts(f, genus)
        assert invariants(f).p_rank == p_rank, f.text()
        assert _kernel_invariants(F, f)[2] == p_rank, f.text()
        seen.append(p_rank)
    assert set(seen) == p_ranks


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_manin_congruence_over_extension_fields(p, k):
    # over F_q, q = p^k: #C(F_q) = 1 - tr(A^(sigma^(k-1)) ... A^(sigma) A)
    # (mod p), the trace lying in F_p; the count is the object layer's
    F = make_field(p, k)
    ops = _coord_ops(F)
    kern = get_kernel(p, k, F.modulus)
    rng = random.Random(9700 + 10 * p + k)
    checked = 0
    while checked < 12:
        genus = rng.randint(1, 3)
        f = Poly.from_ints(
            F, [rng.randrange(F.order) for _ in range(2 * genus + 1)] + [1]
        )
        if not is_squarefree(f):
            continue
        residue = (1 - _count_over_extension(f, 1)) % p
        entries = cartier_matrix(make_curve(f)).entries
        prod = twisted = [[e.coords for e in row] for row in entries]
        _, _, rows = _kernel_rows(F, f)
        kprod, ktwisted = rows, rows
        for _ in range(1, k):
            twisted = [[ops.frob(e) for e in row] for row in twisted]
            prod = _matmul(twisted, prod, ops)
            ktwisted = [[kern.frob_table[e] for e in row] for row in ktwisted]
            kprod = kern._matmul(ktwisted, kprod)
        trace = ops.zero
        ktrace = 0
        for i in range(genus):
            trace = ops.add(trace, prod[i][i])
            ktrace = kern.add[ktrace][kprod[i][i]]
        assert trace == F.element(residue).coords, f.text()
        assert ktrace == residue, f.text()
        checked += 1


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


def _compose(f, u):
    """f(u(x)) by Horner's rule."""
    acc = Poly.zero(f.spec)
    for c in reversed(f.coeffs):
        acc = acc * u + Poly(f.spec, [c])
    return acc


def _random_monic(F, degree, rng):
    return Poly(F, [F.from_encoding(rng.randrange(F.order)) for _ in range(degree)] + [F.one])


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (7, 2)])
def test_reflection_of_script2_family_keeps_invariants(p, k):
    # f = x(x-1)h, h monic (script 2 is genus 4 over F_49): -f(1-x) is
    # monic and divisible by x(x-1) again, and it is the curve y^2 = f(1-x)
    # twisted by -1, with the same invariants over the algebraic closure
    F = make_field(p, k)
    rng = random.Random(9800 + 10 * p + k)
    factor = Poly(F, [F.zero, -F.one, F.one])
    reflection = Poly(F, [F.one, -F.one])
    for _ in range(40):
        genus = rng.randint(1, 4)
        f = factor * _random_monic(F, 2 * genus - 1, rng)
        image = -_compose(f, reflection)
        assert image.leading == F.one
        assert image(F.zero).is_zero and image(F.one).is_zero
        assert invariants(image) == invariants(f), f.text()
        assert _kernel_invariants(F, image) == _kernel_invariants(F, f), f.text()


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (7, 2)])
def test_translation_by_a_root_keeps_invariants(p, k):
    # f = x(x-r)h with r != 0: x -> x + r moves the root r to 0, so f(x+r)
    # is monic with c0 = 0 again, an isomorphic curve
    F = make_field(p, k)
    units = [u for u in enumerate_field(F) if not u.is_zero]
    rng = random.Random(9900 + 10 * p + k)
    for _ in range(40):
        genus = rng.randint(1, 4)
        r = rng.choice(units)
        f = Poly(F, [F.zero, -r, F.one]) * _random_monic(F, 2 * genus - 1, rng)
        image = _compose(f, Poly(F, [r, F.one]))
        assert image.leading == F.one and image.coefficient(0).is_zero
        assert invariants(image) == invariants(f), f.text()
        assert _kernel_invariants(F, image) == _kernel_invariants(F, f), f.text()


def _scaling_orbits(F, degree, fixed, t):
    """The orbits of slot t's nonzero values (encodings) under the scalings
    f -> lam^(-D) f(lam x), D = degree, that keep the family: c_i -> lam^(i-D)
    c_i, with lam^(D-i) = 1 at every fixed nonzero c_i, i < D."""
    units = [x for x in enumerate_field(F) if not x.is_zero]
    kept = [i for i, c in fixed.items() if i < degree and not c.is_zero]
    group = [lam for lam in units if all(lam ** (degree - i) == F.one for i in kept)]
    orbits = {
        frozenset((lam.inv() ** (degree - t) * r).encoding for lam in group)
        for r in units
    }
    return sorted(sorted(orbit) for orbit in orbits)


@pytest.mark.parametrize(
    "p, k, genus, fixed, n_orbits",
    [
        # normalized families: every scaling keeps them, so every nonzero
        # top value is in one orbit
        (5, 1, 3, {0: 0, 7: 1}, 1),
        (7, 1, 2, {0: 0, 5: 1}, 1),
        (3, 2, 2, {0: 0, 5: 1}, 1),
        # c1 = 1 fixed: only lam^4 = 1, lam = +-1, so the orbits are {c, -c}
        (7, 1, 2, {0: 0, 1: 1, 5: 1}, 3),
    ],
)
def test_shards_in_one_scaling_orbit_count_alike(p, k, genus, fixed, n_orbits):
    # a scaling keeps smoothness, the a-number and the p-rank and maps the
    # shard c_t = r of the top free slot one to one onto c_t = lam^(t-D) r,
    # so the per-candidate scan (no end-row test, squarefree counted shard
    # by shard) gives every shard of an orbit the same counts; shards of
    # different orbits need not agree, and with c1 = 1 over F_7 they do not
    F = make_field(p, k)
    spec = SearchSpec(
        field=F,
        degree=2 * genus + 1,
        fixed={i: F.from_encoding(x) for i, x in fixed.items()},
        target_a=1,
        target_p_rank=1,
        prefilter=False,
    )
    counts = {}
    for task in _make_tasks(spec, DEFAULT_BUDGET):
        assert task["count_squarefree"] and not task["prefilter"]
        result = scan(task)
        counts[task["top"]] = tuple(
            result[key] for key in ("squarefree", "rank_matched", "p_rank_matched")
        )
    orbits = _scaling_orbits(F, spec.degree, spec.fixed, spec.free[-1])
    assert len(orbits) == n_orbits
    for orbit in orbits:
        assert len({counts[r] for r in orbit}) == 1, (orbit, counts)
    assert len({counts[orbit[0]] for orbit in orbits}) == n_orbits, counts
    assert all(matched for _, _, matched in counts.values())


# Closed-form family counts from the literature (Silverman, The Arithmetic
# of Elliptic Curves, V.4.1).  A genus-1 curve is supersingular exactly when
# a = 1 = g, so both searches run the a = g path: the sieve's squarefree
# count where it counts, and the gcd only on candidates of rank 0.


def _supersingular_j_count(p):
    """S_p, the number of supersingular j-invariants in characteristic p >=
    5: floor(p/12) + 0, 1, 1 or 2 for p = 1, 5, 7 or 11 mod 12."""
    return p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_eichler_deuring_count_in_the_depressed_family(p, threads):
    # V.4.1(c): every supersingular j lies in F_(p^2), and for p >= 5 each
    # j in F_q has q - 1 curves y^2 = x^3 + a x + b, so (q - 1) S_p of the
    # q^2 - q smooth members match; p = 5, 7, 11, 13 cover every residue
    F = make_field(p, 2)
    spec = SearchSpec(
        field=F, degree=3, fixed={2: F.zero, 3: F.one}, target_a=1,
        require_smooth=True,
    )
    counts = run_search(spec, threads=threads).counts
    q = p * p
    assert counts.squarefree == q * q - q
    assert counts.rank_matched == (q - 1) * _supersingular_j_count(p)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("p", [5, 7])
def test_igusa_count_in_the_legendre_family(p, threads):
    # V.4.1(b): y^2 = x(x - 1)(x - lam) is supersingular for (p - 1)/2
    # values of lam, all in F_(p^2); the cofactor x - lam takes c0 = -lam,
    # and lam = 0, 1 are the two members that are not smooth
    F = make_field(p, 2)
    spec = SearchSpec(
        field=F, degree=3, fixed={1: F.one}, target_a=1, require_smooth=True,
        factor=Poly(F, (F.zero, -F.one, F.one)),
    )
    counts = run_search(spec, threads=threads).counts
    assert counts.squarefree == p * p - 2
    assert counts.rank_matched == (p - 1) // 2


# Closed forms worked by hand.  For y^2 = x^n + 1, n = 2g + 1 prime to p,
# f^e = sum_k C(e, k) x^(nk) with every C(e, k), k <= e < p, a unit, so
# entry (i, j) is nonzero exactly when n | pi - j: row i has at most one
# entry, at j = pi mod n if that is at most g.  At p = 1 mod n it is the
# diagonal (p-rank g); at p = -1 mod n, j = n - i > g and the matrix is 0
# (a = g).  At any other residue some pi mod n (i <= g) lands in 1..g and
# some other lands past g, so neither holds.  Of the 72 curves below, 12
# have a = g, 14 p-rank g, and every p has one with neither.


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
def test_x_to_the_2g_plus_1_plus_1_in_both_layers(p):
    F = make_field(p)
    for g in range(1, 7):
        n = 2 * g + 1
        if n % p == 0:
            continue
        f = Poly(F, [F.one] + [F.zero] * (n - 1) + [F.one])
        superspecial, ordinary = p % n == n - 1, p % n == 1
        inv = invariants(f)
        assert inv.smooth
        assert (inv.a_number == g) == superspecial, (p, g)
        assert (inv.p_rank == g) == ordinary, (p, g)
        # the kernel: a one-candidate search with every coefficient fixed
        fixed = dict(enumerate(f.coeffs))
        spec = SearchSpec(field=F, degree=n, fixed=fixed, target_a=g)
        assert run_search(spec).counts.rank_matched == superspecial, (p, g)
        spec = SearchSpec(field=F, degree=n, fixed=fixed, target_p_rank=g)
        assert run_search(spec).counts.p_rank_matched == ordinary, (p, g)


# The sieve's closed forms.  Of the q^n monic polynomials of degree n,
# q^n - q^(n-1) are squarefree.  For p not dividing n, x -> x + t moves
# every monic polynomial to exactly one depressed one (c_(n-1) = 0) and
# keeps squarefreeness, so q^(n-1) - q^(n-2) depressed ones are.


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "p, k, n", [(7, 1, 5), (3, 2, 5), (3, 1, 7), (11, 1, 5), (13, 1, 3)]
)
def test_monic_and_depressed_family_squarefree_counts(p, k, n, threads):
    F = make_field(p, k)
    q = F.order
    monic = SearchSpec(field=F, degree=n, fixed={n: F.one})
    depressed = monic._replace(fixed={n - 1: F.zero, n: F.one})
    counts = run_search(monic, threads=threads).counts
    assert counts.squarefree == q**n - q ** (n - 1)
    counts = run_search(depressed, threads=threads).counts
    assert counts.enumerated == q ** (n - 1)
    assert counts.squarefree == q ** (n - 1) - q ** (n - 2)
    if q ** (n - 1) < 1000:  # the twin that counts candidate by candidate
        off = run_search(depressed._replace(prefilter=False), threads=threads)
        assert off.counts.squarefree == counts.squarefree


# Ekedahl's bound (Math. Scand. 60, 1987): a superspecial hyperelliptic
# curve in characteristic p has g <= (p - 1)/2.  At g = (p + 1)/2 a smooth
# a = g search must find nothing; at g = (p - 1)/2, y^2 = x^p - x is
# superspecial, and in the families below, which fix c1 = -1, it is the only
# match.  Most of these searches take the squarefree count from the sieve
# and test a candidate's squarefreeness last, after its rank.


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "p, k, genus, fixed, sieved",
    [
        (3, 1, 2, {}, True),  # the normalized family, 3^4 candidates
        (3, 2, 2, {}, True),  # 9^4
        (7, 1, 4, {1: 1, 2: 1, 3: 1}, True),  # 7^5
        (5, 2, 3, {1: 1, 2: 0, 3: 0}, False),  # 25^3
    ],
)
def test_no_superspecial_curve_past_ekedahls_bound(
    p, k, genus, fixed, sieved, threads
):
    assert 2 * genus == p + 1
    F = make_field(p, k)
    degree = 2 * genus + 1
    fixed = {0: F.zero, degree: F.one} | {i: F.element(v) for i, v in fixed.items()}
    spec = SearchSpec(
        field=F, degree=degree, fixed=fixed, target_a=genus, require_smooth=True
    )
    assert _plan(spec)[0] == sieved
    counts = run_search(spec, threads=threads).counts
    assert counts.squarefree > 0
    assert counts.rank_matched == 0


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("p, k", [(7, 1), (5, 2)])
def test_x_to_the_p_minus_x_is_the_one_superspecial_curve_at_ekedahls_bound(
    p, k, threads
):
    # genus (p - 1)/2 with c0 = 0 and c1 = -1 fixed: 7^5 and 25^3 candidates
    F = make_field(p, k)
    spec = SearchSpec(
        field=F, degree=p, fixed={0: F.zero, 1: -F.one, p: F.one},
        target_a=(p - 1) // 2, require_smooth=True,
    )
    assert _plan(spec)[0]
    report = run_search(spec, threads=threads)
    assert report.counts.rank_matched == 1
    assert [w.f for w in report.witnesses] == [
        Poly(F, [F.zero, -F.one] + [F.zero] * (p - 2) + [F.one])
    ]
