import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartier import (
    NEG_INFINITY,
    Poly,
    derivative,
    enumerate_field,
    gcd,
    half_power,
    is_irreducible,
    is_squarefree,
    make_field,
    parse_poly,
)


class TestMul:
    def test_square(self, F5):
        f = parse_poly(F5, "1,1")
        assert (f * f).text() == "1,2,1"

    def test_times_zero(self, F5):
        f = parse_poly(F5, "1,1,3")
        assert (f * Poly.zero(F5)).is_zero

    def test_cross_terms_cancel(self, F3):
        # (x+1)(x+2) = x^2 + 3x + 2 = x^2 + 2
        f = parse_poly(F3, "1,1") * parse_poly(F3, "2,1")
        assert f.text() == "2,0,1"

    def test_degree_adds(self, F7):
        f = parse_poly(F7, "1,2,3")
        g = parse_poly(F7, "0,0,0,5")
        assert (f * g).degree == 5

    def test_mixed_fields_rejected(self, F5, F7):
        with pytest.raises(ValueError):
            parse_poly(F5, "1,1") * parse_poly(F7, "1,1")


def _schoolbook(f, g):
    """Element-wise schoolbook product: the oracle for Poly.__mul__."""
    spec = f.spec
    if f.is_zero or g.is_zero:
        return Poly.zero(spec)
    out = [spec.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(spec, out)


def _oracle_pow(f, n):
    result = Poly.one(f.spec)
    for _ in range(n):
        result = _schoolbook(result, f)
    return result


class TestProductOracle:
    FIELDS = [(5, 1), (7, 1), (3, 2), (3, 3), (7, 2)]

    @staticmethod
    def _polys(spec, seed):
        rng = random.Random(seed)
        polys = [Poly.zero(spec), Poly.one(spec), Poly.from_ints(spec, [spec.order - 1])]
        for degree in range(12):
            polys.append(
                Poly.from_ints(spec, [rng.randrange(spec.order) for _ in range(degree + 1)])
            )
        # sparse ones: most coefficients zero
        for degree in (3, 7, 11):
            encs = [rng.randrange(spec.order) if rng.random() < 0.3 else 0
                    for _ in range(degree)]
            polys.append(Poly.from_ints(spec, encs + [1 + rng.randrange(spec.order - 1)]))
        return polys

    @pytest.mark.parametrize("p, k", FIELDS)
    def test_products_and_powers_match_schoolbook(self, p, k):
        spec = make_field(p, k)
        polys = self._polys(spec, 100 * p + k)
        for f in polys:
            for g in polys:
                assert f * g == _schoolbook(f, g)
            for n in range(5):
                assert f**n == _oracle_pow(f, n)
            if not f.is_zero:
                assert half_power(f) == _oracle_pow(f, (p - 1) // 2)
            for c in (spec.zero, spec.one, spec.from_encoding(spec.order - 1)):
                assert f * c == _schoolbook(f, Poly(spec, [c]))

    def test_different_fields_rejected(self):
        f9 = make_field(3, 2, [1, 0, 1])
        other = make_field(3, 2, [2, 2, 1])  # same p and k, another modulus
        f = parse_poly(f9, "1,[0,1]")
        with pytest.raises(ValueError):
            f * parse_poly(other, "1,[0,1]")
        with pytest.raises(ValueError):
            f * parse_poly(make_field(5, 2), "1,[0,1]")
        with pytest.raises(ValueError):
            f * other.gen


class TestHalfPower:
    def test_p3_is_identity(self, F3):
        f = parse_poly(F3, "0,1,2,0,0,1")
        assert half_power(f) == f

    def test_p5_squares(self, F5):
        assert half_power(parse_poly(F5, "1,1")).text() == "1,2,1"

    def test_p5_worked_example(self, F5):
        # (x^5 + x)^2 = x^10 + 2x^6 + x^2
        f = parse_poly(F5, "0,1,0,0,0,1")
        assert half_power(f).text() == "0,0,1,0,0,0,2,0,0,0,1"

    def test_zero_rejected(self, F5):
        with pytest.raises(ValueError):
            half_power(Poly.zero(F5))

    def test_degree(self, F7):
        f = parse_poly(F7, "0,1,0,0,0,0,0,0,0,1")
        assert half_power(f).degree == 3 * 9


class TestDerivative:
    def test_p_divides_exponent(self, F3):
        assert derivative(parse_poly(F3, "1,0,0,1")).is_zero  # d(x^3+1) = 0

    def test_x5_plus_x_over_f5(self, F5):
        assert derivative(parse_poly(F5, "0,1,0,0,0,1")).text() == "1"

    def test_plain(self, F7):
        assert derivative(parse_poly(F7, "0,3,1")).text() == "3,2"

    def test_constant_and_zero(self, F7):
        assert derivative(parse_poly(F7, "4")).is_zero
        assert derivative(Poly.zero(F7)).is_zero


class TestGcd:
    def test_with_zero_normalizes(self, F5):
        f = parse_poly(F5, "0,2,4")
        assert gcd(f, Poly.zero(F5)) == f.monic()
        assert gcd(f, Poly.zero(F5)).leading == F5.one

    def test_powers_of_x(self, F5):
        # gcd of monomials is x^min: x^2 divides both x^2 and x^3
        assert gcd(parse_poly(F5, "0,0,1"), parse_poly(F5, "0,0,0,1")).text() == "0,0,1"
        assert gcd(parse_poly(F5, "0,1"), parse_poly(F5, "0,0,0,1")).text() == "0,1"

    def test_coprime(self, F5):
        f = parse_poly(F5, "0,1,0,0,0,1")
        assert gcd(f, derivative(f)).degree == 0

    def test_both_zero_rejected(self, F5):
        with pytest.raises(ValueError):
            gcd(Poly.zero(F5), Poly.zero(F5))


def _random_poly(F, rng, degree, monic=False):
    cs = [rng.randrange(F.order) for _ in range(degree + 1)]
    if monic:
        cs[-1] = 1
    return Poly.from_ints(F, cs)


class TestEuclidOverSmallFields:
    FIELDS = [(3, 1), (7, 1), (3, 2), (7, 2), (3, 3)]

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_division_reconstructs(self, p, k):
        F = make_field(p, k)
        rng = random.Random(7100 + 10 * p + k)
        for _ in range(150):
            a = _random_poly(F, rng, rng.randint(0, 12))
            b = _random_poly(F, rng, rng.randint(0, 8))
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    @pytest.mark.parametrize("p,k", FIELDS)
    def test_gcd_scales_by_a_common_monic_factor(self, p, k):
        F = make_field(p, k)
        rng = random.Random(7200 + 10 * p + k)
        for _ in range(80):
            f = _random_poly(F, rng, rng.randint(0, 7))
            g = _random_poly(F, rng, rng.randint(0, 7))
            h = _random_poly(F, rng, rng.randint(1, 4), monic=True)
            if f.is_zero and g.is_zero:
                continue
            d = gcd(f * h, g * h)
            assert d == h * gcd(f, g)
            assert (f * h % d).is_zero and (g * h % d).is_zero


class TestSquarefree:
    def test_obvious_square(self, F5):
        assert not is_squarefree(parse_poly(F5, "0,0,1"))

    def test_pth_power_detected_by_zero_derivative(self, F3):
        # x^3 + 1 = (x+1)^3
        assert not is_squarefree(parse_poly(F3, "1,0,0,1"))

    def test_x5_plus_x_over_f3(self, F3):
        # Euclid oracle: gcd(x^5+x, 2x^4+1) = 1
        assert is_squarefree(parse_poly(F3, "0,1,0,0,0,1"))

    def test_constant_rejected(self, F3):
        with pytest.raises(ValueError):
            is_squarefree(parse_poly(F3, "2"))
        with pytest.raises(ValueError):
            is_squarefree(Poly.zero(F3))

    @pytest.mark.parametrize("degree", [4, 5])
    def test_brute_force_oracle_over_f3(self, F3, degree):
        # oracle: f is not squarefree iff q^2 | f for some monic q, deg q >= 1
        monics = []
        for d in range(1, degree // 2 + 1):
            for cs in itertools.product(range(3), repeat=d):
                monics.append(Poly.from_ints(F3, list(cs) + [1]))
        for cs in itertools.product(range(3), repeat=degree):
            f = Poly.from_ints(F3, list(cs) + [1])
            has_square = any((f % (q * q)).is_zero for q in monics)
            assert is_squarefree(f) == (not has_square), f.text()

    @pytest.mark.parametrize("degree", [3, 4])
    def test_brute_force_oracle_over_f9(self, F9, degree):
        # oracle by products alone: f is not squarefree iff f = q^2 r for a
        # monic q of degree >= 1 and a monic r
        def monics(d):
            return [
                Poly.from_ints(F9, [*cs, 1])
                for cs in itertools.product(range(9), repeat=d)
            ]

        squareful = {
            q * q * r
            for d in range(1, degree // 2 + 1)
            for q in monics(d)
            for r in monics(degree - 2 * d)
        }
        for f in monics(degree):
            assert is_squarefree(f) == (f not in squareful), f.text()


class TestIrreducible:
    def test_no_root_quadratic(self, F3):
        assert is_irreducible(parse_poly(F3, "1,0,1"))

    def test_root_detected(self, F5):
        assert not is_irreducible(parse_poly(F5, "1,0,1"))  # 2^2 = -1

    def test_exhaustive_evaluation_oracle(self, F5):
        # degree 2: irreducible iff no residue is a root
        f = parse_poly(F5, "1,1,1")
        roots = [x for x in enumerate_field(F5) if f(x).is_zero]
        assert roots == []
        assert is_irreducible(f) is True

    def test_linear_always_irreducible(self, F7):
        assert is_irreducible(parse_poly(F7, "3,1"))

    def test_non_monic_rejected(self, F5):
        with pytest.raises(ValueError, match="monic"):
            is_irreducible(parse_poly(F5, "1,2"))

    def test_extension_coeffs_rejected(self, F9):
        with pytest.raises(ValueError):
            is_irreducible(parse_poly(F9, "1,0,1"))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_factor_oracle_degree_2_and_3(self, p):
        # oracle: degree <= 3 is reducible iff it has a root
        F = make_field(p)
        for d in (2, 3):
            for cs in itertools.product(range(p), repeat=d):
                f = Poly.from_ints(F, list(cs) + [1])
                has_root = any(f(x).is_zero for x in enumerate_field(F))
                assert is_irreducible(f) == (not has_root), f.text()


class TestEval:
    def test_at_zero(self, F5):
        f = parse_poly(F5, "0,1,0,0,0,1")
        assert f(F5.zero).is_zero

    def test_root(self, F5):
        assert parse_poly(F5, "1,0,1")(F5.element(2)).is_zero

    def test_horner(self, F3):
        # 1 + 2 + 1 = 4 = 1 mod 3
        assert parse_poly(F3, "1,2,0,1")(F3.one) == F3.one


class TestRepresentation:
    def test_zero_degree_sentinel(self, F5):
        assert Poly.zero(F5).degree == NEG_INFINITY
        assert Poly.zero(F5).text() == "0"

    def test_trailing_zeros_stripped(self, F5):
        assert parse_poly(F5, "1,2,0,0").degree == 1

    def test_text_roundtrip_extension(self, F9):
        # extension elements always print bracketed; bare ints parse as constants
        f = parse_poly(F9, "0,1,[2,1]")
        assert f.text() == "[0,0],[1,0],[2,1]"
        assert parse_poly(F9, f.text()) == f


FIELDS = [(3, 1, None), (5, 1, None), (7, 1, None), (3, 2, (1, 0, 1))]


@st.composite
def random_poly(draw, max_degree=11, nonzero=False):
    p, k, mod = draw(st.sampled_from(FIELDS))
    spec = make_field(p, k, mod)
    degree = draw(st.integers(0, max_degree))
    encs = draw(st.lists(st.integers(0, spec.order - 1), min_size=degree + 1, max_size=degree + 1))
    f = Poly.from_ints(spec, encs)
    if nonzero and f.is_zero:
        f = Poly.one(spec)
    return spec, f


@st.composite
def random_poly_pair(draw, max_degree=8):
    p, k, mod = draw(st.sampled_from(FIELDS))
    spec = make_field(p, k, mod)

    def one():
        d = draw(st.integers(0, max_degree))
        encs = draw(st.lists(st.integers(0, spec.order - 1), min_size=d + 1, max_size=d + 1))
        return Poly.from_ints(spec, encs)

    return spec, one(), one()


class TestAlgebraProperties:
    @given(random_poly_pair())
    def test_mul_commutes(self, sfg):
        _, f, g = sfg
        assert f * g == g * f

    @given(random_poly_pair())
    def test_degree_of_product(self, sfg):
        _, f, g = sfg
        if not f.is_zero and not g.is_zero:
            assert (f * g).degree == f.degree + g.degree

    @settings(max_examples=60)
    @given(random_poly(nonzero=True))
    def test_half_power_equals_repeated_product(self, sf):
        spec, f = sf
        e = (spec.p - 1) // 2
        expected = Poly.one(spec)
        for _ in range(e):
            expected = expected * f
        assert half_power(f) == expected

    @settings(max_examples=60)
    @given(random_poly_pair(max_degree=5))
    def test_half_power_multiplicative(self, sfg):
        _, f, g = sfg
        if f.is_zero or g.is_zero:
            return
        assert half_power(f * g) == half_power(f) * half_power(g)

    @settings(max_examples=60)
    @given(random_poly(nonzero=True))
    def test_low_kappa_vanish_when_constant_term_zero(self, sf):
        # with c_0 = 0, coefficient i of f^((p-1)/2) is 0 for i < (p-1)/2
        spec, f = sf
        shifted = Poly.monomial(spec, 1) * f  # force f(0) = 0
        kappa = half_power(shifted)
        for i in range((spec.p - 1) // 2):
            assert kappa.coefficient(i).is_zero

    @given(random_poly_pair())
    def test_divmod_reconstructs(self, sfg):
        _, f, g = sfg
        if g.is_zero:
            return
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree
