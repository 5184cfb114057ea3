import itertools
import json
import random
from pathlib import Path

import pytest

from cartier import (
    Invariants,
    Poly,
    UnsupportedDegreeError,
    a_number,
    cartier_matrix,
    half_power,
    invariants,
    is_squarefree,
    make_curve,
    make_field,
    p_rank,
    parse_poly,
    rank,
    report_fragment,
)
from cartier.fields import random_element


def entries_text(m):
    return [[str(e) for e in row] for row in m.entries]


class TestMakeCurve:
    def test_basic(self, F3):
        c = make_curve(parse_poly(F3, "0,1,0,0,0,1"))
        assert c.genus == 2 and c.smooth

    def test_singular_flagged(self, F3):
        c = make_curve(parse_poly(F3, "0,0,0,0,0,1"))
        assert c.genus == 2 and not c.smooth

    def test_even_degree_rejected(self, F3):
        with pytest.raises(UnsupportedDegreeError):
            make_curve(parse_poly(F3, "1,0,0,0,1"))

    def test_low_degree_rejected(self, F3):
        with pytest.raises(ValueError):
            make_curve(parse_poly(F3, "1,1"))


class TestCartierMatrix:
    def test_p3_ordinary_example(self, F3):
        m = cartier_matrix(make_curve(parse_poly(F3, "0,1,0,0,0,1")))
        assert entries_text(m) == [["0", "1"], ["1", "0"]]

    def test_p3_cusp_example(self, F3):
        m = cartier_matrix(make_curve(parse_poly(F3, "0,0,0,0,0,1")))
        assert entries_text(m) == [["0", "0"], ["1", "0"]]

    def test_p5_superspecial_example(self, F5):
        m = cartier_matrix(make_curve(parse_poly(F5, "0,1,0,0,0,1")))
        assert entries_text(m) == [["0", "0"], ["0", "0"]]

    def test_one_indexed_accessor(self, F3):
        m = cartier_matrix(make_curve(parse_poly(F3, "0,1,0,0,0,1")))
        assert str(m.entry(2, 1)) == "1"

    def test_agrees_with_naive_expansion_oracle(self, F3):
        # oracle: read entries off the repeated product directly, over all
        # monic degree-5 f with c_0 = 0
        for cs in itertools.product(range(3), repeat=4):
            f = Poly.from_ints(F3, [0, *cs, 1])
            expansion = Poly.one(F3)
            for _ in range((3 - 1) // 2):
                expansion = expansion * f
            m = cartier_matrix(make_curve(f))
            for i in (1, 2):
                for j in (1, 2):
                    assert m.entry(i, j) == expansion.coefficient(3 * i - j)


class TestRank:
    def test_permutation(self, F3):
        m = cartier_matrix(make_curve(parse_poly(F3, "0,1,0,0,0,1")))
        assert rank(m) == 2

    def test_zero(self, F5):
        m = cartier_matrix(make_curve(parse_poly(F5, "0,1,0,0,0,1")))
        assert rank(m) == 0

    def test_nilpotent(self, F3):
        m = cartier_matrix(make_curve(parse_poly(F3, "0,0,0,0,0,1")))
        assert rank(m) == 1


class TestANumber:
    def test_examples(self, F3, F5):
        assert a_number(make_curve(parse_poly(F3, "0,1,0,0,0,1"))) == 0
        assert a_number(make_curve(parse_poly(F5, "0,1,0,0,0,1"))) == 2
        assert a_number(make_curve(parse_poly(F3, "0,0,0,0,0,1"))) == 1


class TestPRank:
    def test_ordinary(self, F3):
        # A = [[0,1],[1,0]], A * A^sigma = identity
        assert p_rank(make_curve(parse_poly(F3, "0,1,0,0,0,1"))) == 2

    def test_zero_matrix(self, F5):
        assert p_rank(make_curve(parse_poly(F5, "0,1,0,0,0,1"))) == 0

    def test_nilpotent_rank_one(self, F3):
        # A = [[0,0],[1,0]]: the iterate A*A^sigma is the zero matrix
        assert p_rank(make_curve(parse_poly(F3, "0,0,0,0,0,1"))) == 0

    def test_full_rank_implies_ordinary(self, F7):
        rng = random.Random(11)
        found = 0
        while found < 20:
            f = Poly.from_ints(F7, [0, *(rng.randrange(7) for _ in range(4)), 1])
            c = make_curve(f)
            m = cartier_matrix(c)
            if rank(m) == c.genus:
                assert p_rank(c) == c.genus
                found += 1

    def test_genus1_matches_point_count_oracle(self):
        # independent oracle: #E(F_p) by direct quadratic-residue count;
        # supersingular iff trace = p+1-#E is 0 mod p iff rank(A) = 0
        for p in (3, 5, 7):
            F = make_field(p)
            squares = {(x * x) % p for x in range(p)}
            for cs in itertools.product(range(p), repeat=3):
                f = Poly.from_ints(F, [*cs, 1])
                if not is_squarefree(f):
                    continue
                npts = 1
                for x in range(p):
                    v = (cs[0] + cs[1] * x + cs[2] * x * x + x**3) % p
                    npts += 1 if v == 0 else (2 if v in squares else 0)
                supersingular = (p + 1 - npts) % p == 0
                inv = invariants(f)
                assert (inv.rank_a == 0) == supersingular, f.text()
                assert inv.p_rank == (0 if supersingular else 1), f.text()


class TestInvariantsBundle:
    def test_worked_examples(self, F3, F5):
        ordinary = invariants(parse_poly(F3, "0,1,0,0,0,1"))
        assert ordinary == Invariants(genus=2, smooth=True, rank_a=2, p_rank=2)
        assert ordinary.a_number == 0
        superspecial = invariants(parse_poly(F5, "0,1,0,0,0,1"))
        assert superspecial == Invariants(genus=2, smooth=True, rank_a=0, p_rank=0)
        assert superspecial.a_number == 2
        # the cusp: product of the two twists is the zero matrix, so f_C = 0
        cusp = invariants(parse_poly(F3, "0,0,0,0,0,1"))
        assert cusp == Invariants(genus=2, smooth=False, rank_a=1, p_rank=0)
        assert cusp.a_number == 1

    def test_report_fragment_shape(self, F3):
        f = parse_poly(F3, "0,1,0,0,0,1")
        frag = report_fragment(f)
        assert frag == {
            "p": 3,
            "k": 1,
            "genus": 2,
            "smooth": True,
            "rank_A": 2,
            "a_number": 0,
            "p_rank": 2,
            "coeffs": ["0", "1", "0", "0", "0", "1"],
        }


def random_normalized_poly(F, genus, rng):
    degree = 2 * genus + 1
    return Poly.from_ints(
        F, [0, *(rng.randrange(F.order) for _ in range(degree - 1)), 1]
    )


CASES = [(5, 3), (7, 4), (7, 5)]


class TestStructuralIdentities:
    @pytest.mark.parametrize("p,genus", CASES)
    def test_entry_identities(self, p, genus):
        # for c_0 = 0 and monic f with g >= (p+1)/2:
        #   A[1][(p+1)/2] = c_1^((p-1)/2)  and  A[g][g-(p-1)/2] = 1
        F = make_field(p)
        rng = random.Random(1000 + p * genus)
        for _ in range(1000):
            f = random_normalized_poly(F, genus, rng)
            m = cartier_matrix(make_curve(f))
            c1 = f.coefficient(1)
            assert m.entry(1, (p + 1) // 2) == c1 ** ((p - 1) // 2)
            assert m.entry(genus, genus - (p - 1) // 2) == F.one

    @pytest.mark.parametrize("p,genus", CASES)
    def test_zero_patterns(self, p, genus):
        F = make_field(p)
        rng = random.Random(2000 + p * genus)
        for _ in range(200):
            f = random_normalized_poly(F, genus, rng)
            m = cartier_matrix(make_curve(f))
            for j in range((p + 3) // 2, genus + 1):
                assert m.entry(1, j).is_zero
            for j in range(1, genus - (p + 1) // 2 + 1):
                assert m.entry(genus, j).is_zero

    @pytest.mark.parametrize("p,genus", [(3, 2), (5, 2), (5, 3), (7, 3)])
    def test_a_number_bounded_by_genus_minus_p_rank(self, p, genus):
        F = make_field(p)
        rng = random.Random(3000 + p * genus)
        checked = 0
        while checked < 150:
            f = random_normalized_poly(F, genus, rng)
            inv = invariants(f)
            if not inv.smooth:
                continue
            assert inv.a_number <= inv.genus - inv.p_rank
            assert inv.a_number == inv.genus - inv.rank_a
            assert (inv.p_rank == inv.genus) == (inv.rank_a == inv.genus)
            checked += 1

    def test_rank_invariant_under_entrywise_frobenius(self, F9):
        from cartier.invariants import CartierMatrix

        rng = random.Random(5)
        for _ in range(100):
            f = random_normalized_poly(F9, 3, rng)
            m = cartier_matrix(make_curve(f))
            twisted = tuple(tuple(e.frobenius(1) for e in row) for row in m.entries)
            assert rank(m) == rank(CartierMatrix(F9, 3, twisted))


# The FieldElement forms of rank, matrix product and p-rank that the
# coordinate-tuple loops in cartier.invariants replaced, kept as their oracle.


def _oracle_rank_of_rows(rows):
    rows = [list(row) for row in rows]
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


def _oracle_matmul(x, y, zero):
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


def _oracle_p_rank(rows, zero, reverse=False):
    # A^(sigma^(g-1)) * ... * A^(sigma) * A, or A * ... * A^(sigma^(g-1))
    prod = twisted = rows
    for _ in range(1, len(rows)):
        twisted = [[e.frobenius(1) for e in row] for row in twisted]
        if reverse:
            prod = _oracle_matmul(prod, twisted, zero)
        else:
            prod = _oracle_matmul(twisted, prod, zero)
    return _oracle_rank_of_rows(prod)


def _random_matrix(F, rng, m, n, zeros=0.0):
    return [
        [F.zero if rng.random() < zeros else random_element(F, rng) for _ in range(n)]
        for _ in range(m)
    ]


def _coord_rows(rows):
    return [[e.coords for e in row] for row in rows]


class TestCoordinateTupleLoops:
    """Rank, matrix product and p-rank on coordinate tuples against their
    FieldElement forms, on full-rank, sparse and rank-deficient matrices."""

    FIELDS = [(7, 1), (3, 2), (7, 2), (3, 3)]

    def _matrices(self, F, rng):
        for _ in range(40):
            g = rng.randint(1, 4)
            yield _random_matrix(F, rng, g, g)
            yield _random_matrix(F, rng, g, g, zeros=0.6)
            # rank at most r: a g x r times an r x g product
            r = rng.randint(1, g)
            left = _random_matrix(F, rng, g, r)
            yield _oracle_matmul(left, _random_matrix(F, rng, r, g), F.zero)
            # repeated and zero rows
            row = [random_element(F, rng) for _ in range(g)]
            yield [list(row), [F.zero] * g, [c * c for c in row]][:g] + [row] * (g - 3)

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_rank_matches_the_field_element_oracle(self, p, k):
        from cartier.fields import _coord_ops
        from cartier.invariants import _rank_of_rows

        F = make_field(p, k)
        rng = random.Random(6100 + 10 * p + k)
        ranks = set()
        for rows in self._matrices(F, rng):
            expected = _oracle_rank_of_rows(rows)
            coords = _coord_rows(rows)
            assert _rank_of_rows(coords, _coord_ops(F)) == expected
            assert coords == _coord_rows(rows)  # the input is left as it was
            ranks.add((len(rows), expected))
        assert any(r < g for g, r in ranks) and any(r == g > 1 for g, r in ranks)

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_matmul_matches_the_field_element_oracle(self, p, k):
        from cartier.fields import _coord_ops
        from cartier.invariants import _matmul

        F = make_field(p, k)
        rng = random.Random(6200 + 10 * p + k)
        for x, y in zip(self._matrices(F, rng), self._matrices(F, rng)):
            n = min(len(x[0]), len(y))
            x, y = [row[:n] for row in x], y[:n]
            expected = _coord_rows(_oracle_matmul(x, y, F.zero))
            assert _matmul(_coord_rows(x), _coord_rows(y), _coord_ops(F)) == expected

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_p_rank_matches_the_field_element_oracle(self, p, k):
        from cartier.fields import _coord_ops
        from cartier.invariants import _p_rank_of_rows

        F = make_field(p, k)
        rng = random.Random(6300 + 10 * p + k)
        for rows in self._matrices(F, rng):
            assert _p_rank_of_rows(_coord_rows(rows), _coord_ops(F)) == _oracle_p_rank(
                rows, F.zero
            )

    def test_p_rank_takes_the_product_in_order_over_f27(self):
        # rank one, A = u v^T: the product A^(sigma^(g-1)) ... A is nonzero iff
        # v^sigma . u != 0, the reverse one iff v . u^sigma != 0; over F_27 the
        # two differ, so a swapped product shows on some of these
        from cartier.fields import _coord_ops
        from cartier.invariants import _p_rank_of_rows

        F = make_field(3, 3)
        rng = random.Random(6400)
        differ = 0
        for _ in range(400):
            g = rng.randint(2, 3)
            u = _random_matrix(F, rng, g, 1)
            v = _random_matrix(F, rng, 1, g)
            rows = _oracle_matmul(u, v, F.zero)
            expected = _oracle_p_rank(rows, F.zero)
            assert _p_rank_of_rows(_coord_rows(rows), _coord_ops(F)) == expected
            differ += expected != _oracle_p_rank(rows, F.zero, reverse=True)
        assert differ >= 5


def test_golden_witnesses_recompute_to_their_fragments():
    # every witness of the benchmark's witness-heavy report (read only)
    path = Path(__file__).parent.parent / "perfbench/golden/witness-heavy.json"
    doc = json.loads(path.read_text())
    spec = doc["spec"]
    F = make_field(spec["p"], spec["k"], spec["modulus"])
    assert len(doc["witnesses"]) == 247
    for frag in doc["witnesses"]:
        f = parse_poly(F, ",".join(frag["coeffs"]))
        assert report_fragment(f, invariants(f)) == frag
