import ast
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cartier import (
    FieldElement,
    FieldSpec,
    enumerate_field,
    make_field,
    parse_element,
    parse_field_spec,
    random_element,
)
from cartier.fields import _draws_below, _power, _prime_factors, _rand_below

SRC = Path(__file__).resolve().parents[1] / "src" / "cartier"


class TestMakeField:
    def test_prime_field(self):
        f = make_field(7, 1)
        assert f.p == 7 and f.k == 1 and f.order == 7

    def test_extension_accepts_irreducible(self):
        f = make_field(3, 2, [1, 0, 1])  # x^2 + 1 has no root mod 3
        assert f.order == 9

    def test_extension_rejects_reducible(self):
        # x^2 + 1 factors over F_5 since 2^2 = 4 = -1
        with pytest.raises(ValueError, match="reducible"):
            make_field(5, 2, [1, 0, 1])

    def test_default_modulus_is_smallest_irreducible(self):
        assert make_field(3, 2).modulus == (1, 0, 1)
        # over F_7: x^2, x^2+1? -1 is a non-residue mod 7, so x^2+1 is first
        assert make_field(7, 2).modulus == (1, 0, 1)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            make_field(4)

    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            make_field(2)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            make_field(5, 0)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError, match="monic"):
            make_field(3, 2, [1, 0, 2])

    @pytest.mark.parametrize("p", [1, 9, 15, 25, 1001, 7 * 11 * 13 * 17])
    def test_rejects_odd_composites_and_one(self, p):
        with pytest.raises(ValueError, match="odd prime"):
            make_field(p)

    def test_accepts_a_prime_past_1000(self):
        assert make_field(1009).order == 1009

    def test_degree_three_default(self):
        f = make_field(3, 3)
        assert f.order == 27
        assert len(f.modulus) == 4 and f.modulus[-1] == 1


class TestArithmetic:
    def test_prime_mul(self, F7):
        assert F7.element(3) * F7.element(5) == F7.element(1)  # 15 = 1 mod 7

    def test_extension_generator_square(self, F9):
        a = F9.gen
        assert a * a == F9.element(2)  # a^2 = -1 = 2

    def test_prime_add(self, F5):
        assert F5.element(4) + F5.element(3) == F5.element(2)

    def test_sub_neg(self, F7):
        x, y = F7.element(2), F7.element(5)
        assert x - y == F7.element(4)
        assert -y == F7.element(2)

    def test_mixed_fields_rejected(self, F5, F7):
        with pytest.raises(ValueError, match="different fields"):
            F5.element(1) + F7.element(1)

    def test_same_parameters_different_spec_objects(self):
        # equal specs interoperate even when not the same object
        a = make_field(5).element(2)
        b = make_field(5).element(4)
        assert a * b == make_field(5).element(3)


class TestInverse:
    def test_prime(self, F7, F5):
        assert F7.element(3).inv() == F7.element(5)
        assert F5.element(4).inv() == F5.element(4)  # 16 = 1 mod 5

    def test_extension(self, F9):
        a = F9.gen
        # a * 2a = 2 a^2 = 2 * 2 = 4 = 1
        assert a * F9.element([0, 2]) == F9.one
        assert a.inv() == F9.element([0, 2])

    def test_zero_rejected(self, F7):
        with pytest.raises(ZeroDivisionError):
            F7.zero.inv()


class TestPow:
    def test_cube(self, F7):
        assert F7.element(2) ** 3 == F7.element(1)  # 8 = 1 mod 7

    def test_half_exponent(self, F5):
        assert F5.element(2) ** 2 == F5.element(4)

    def test_zero_exponent_is_one(self, F7, F9):
        assert F7.element(3) ** 0 == F7.one
        assert F9.zero ** 0 == F9.one  # 0^0 defined as 1


class TestSharedPowerLoop:
    def test_power_counts_its_products(self):
        # right-to-left square-and-multiply: one product per set bit and one
        # square per bit after the lowest, none past the top bit
        for n in range(65):
            calls = []

            def mul(a, b):
                calls.append((a, b))
                return a * b

            assert _power(3, n, 1, mul) == 3**n
            assert len(calls) == max(0, n.bit_count() + n.bit_length() - 1)

    def test_prime_factors_match_a_sieve(self):
        limit = 3000
        smallest = list(range(limit + 1))
        for d in range(2, int(limit**0.5) + 1):
            if smallest[d] == d:
                for m in range(d * d, limit + 1, d):
                    smallest[m] = min(smallest[m], d)
        for n in range(1, limit + 1):
            expected = []
            m = n
            while m > 1:
                d = smallest[m]
                expected.append(d)
                while m % d == 0:
                    m //= d
            assert _prime_factors(n) == expected, n


def test_object_layer_imports_only_itself():
    # the kernel and the engine are cross-checked against fields, poly and
    # invariants, so those three must not reach back into them
    layer = {"fields", "poly", "invariants"}
    for name in sorted(layer):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node.level == 1 and node.module in layer, (name, node.module)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] if isinstance(
                    node, ast.Import
                ) else [node.module]
                assert all(m.split(".")[0] != "cartier" for m in modules), name


class TestFrobeniusAndRoots:
    def test_identity_on_prime_field(self, F7):
        for e in enumerate_field(F7):
            assert e.frobenius(1) == e
            assert e.frobenius(5) == e

    def test_extension_cube(self, F9):
        a = F9.gen
        # a^3 = a * a^2 = 2a
        assert a.frobenius(1) == F9.element([0, 2])

    def test_power_zero_is_identity(self, F9):
        for e in enumerate_field(F9):
            assert e.frobenius(0) == e

    def test_pth_root_examples(self, F7, F9):
        assert F7.element(4).pth_root() == F7.element(4)
        # verified by a^3 = 2a: the cube root of 2a is a
        assert F9.element([0, 2]).pth_root() == F9.gen
        assert F9.zero.pth_root() == F9.zero


class TestEnumerate:
    def test_prime(self, F3):
        assert [str(e) for e in enumerate_field(F3)] == ["0", "1", "2"]

    def test_extension_order_and_ends(self, F9):
        els = list(enumerate_field(F9))
        assert len(els) == 9
        assert els[0] == F9.zero
        assert str(els[-1]) == "[2,2]"  # 2 + 2a

    def test_distinct_and_sized(self, F49):
        els = list(enumerate_field(F49))
        assert len(els) == 49
        assert len(set(els)) == 49


class TestRandom:
    def test_same_seed_same_stream(self, F49):
        r1, r2 = random.Random(123), random.Random(123)
        s1 = [random_element(F49, r1) for _ in range(100)]
        s2 = [random_element(F49, r2) for _ in range(100)]
        assert s1 == s2

    def test_pinned_stream_values(self, F49):
        # MT19937(1) + 6-bit rejection below 49; frozen so a platform or
        # version drift fails loudly instead of silently changing reports
        rng = random.Random(1)
        got = [str(random_element(F49, rng)) for _ in range(5)]
        assert got == ["[1,1]", "[1,5]", "[6,6]", "[4,0]", "[2,2]"]

    @pytest.mark.parametrize(
        "n", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 121, 243, 256, 289, 343, 1024]
    )
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_bulk_draws_equal_single_draws(self, n, seed):
        # value for value from the same words, with sizes that cut the stream
        # anywhere, so accepted values carry over from one size to the next
        sizes = [0, 1, 7, 2, 500, 0, 3, 1234]
        ref = random.Random(seed)
        bulk = _draws_below(random.Random(seed), n, sizes)
        for size, got in zip(sizes, bulk, strict=True):
            assert got.typecode == ("B" if n <= 256 else "H")
            assert list(got) == [_rand_below(ref, n) for _ in range(size)]

    def test_draws_in_range(self, F9):
        rng = random.Random(7)
        for _ in range(500):
            e = random_element(F9, rng)
            assert all(0 <= c < 3 for c in e.coords)

    def test_zero_frequency(self, F7):
        rng = random.Random(2024)
        n = 10**6
        zeros = sum(1 for _ in range(n) if random_element(F7, rng).is_zero)
        assert abs(zeros / n - 1 / 7) < 0.002


FIELDS = [(3, 1, None), (5, 1, None), (7, 1, None), (3, 2, (1, 0, 1)), (5, 2, None)]


@st.composite
def field_and_element(draw):
    p, k, mod = draw(st.sampled_from(FIELDS))
    spec = make_field(p, k, mod)
    return spec, spec.from_encoding(draw(st.integers(0, spec.order - 1)))


@st.composite
def field_and_two_elements(draw):
    p, k, mod = draw(st.sampled_from(FIELDS))
    spec = make_field(p, k, mod)
    x = spec.from_encoding(draw(st.integers(0, spec.order - 1)))
    y = spec.from_encoding(draw(st.integers(0, spec.order - 1)))
    return spec, x, y


class TestProperties:
    @given(field_and_element())
    def test_inverse_roundtrip(self, fe):
        spec, a = fe
        if not a.is_zero:
            assert a * a.inv() == spec.one
            assert a.inv().inv() == a

    @given(field_and_two_elements())
    def test_frobenius_is_field_automorphism(self, fxy):
        spec, x, y = fxy
        assert (x + y).frobenius(1) == x.frobenius(1) + y.frobenius(1)
        assert (x * y).frobenius(1) == x.frobenius(1) * y.frobenius(1)

    @given(field_and_element())
    def test_pth_root_inverts_frobenius(self, fe):
        _, a = fe
        assert a.frobenius(1).pth_root() == a
        assert a.pth_root().frobenius(1) == a

    @given(field_and_element())
    def test_multiplicative_order_divides(self, fe):
        spec, a = fe
        if not a.is_zero:
            assert a ** (spec.order - 1) == spec.one

    @given(field_and_element())
    def test_encoding_roundtrip(self, fe):
        spec, a = fe
        assert spec.from_encoding(a.encoding) == a


# Exhaustive checks against a reference written here.  An extension element
# is a polynomial in the generator a of degree < k; the reference multiplies
# two of them by convolving coordinates mod p and folding each a^d, d >= k,
# back through its precomputed reduction, a shift-and-subtract by the modulus.
EXHAUSTIVE_FIELDS = [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)]


def _powers_of_gen(spec):
    """Coordinates of a^d for d = 0 .. 2k-2."""
    p, k = spec.p, spec.k
    powers = [tuple(int(i == d) for i in range(k)) for d in range(k)]
    while len(powers) < 2 * k - 1:
        top = powers[-1][-1]
        shifted = (0,) + powers[-1][:-1]
        powers.append(
            tuple((c - top * m) % p for c, m in zip(shifted, spec.modulus))
        )
    return powers


def _ref_mul(spec, powers, x, y):
    p, k = spec.p, spec.k
    if k == 1:
        return ((x[0] * y[0]) % p,)
    out = [0] * k
    for i in range(k):
        for j in range(k):
            c = x[i] * y[j]
            out = [(o + c * r) % p for o, r in zip(out, powers[i + j])]
    return tuple(out)


class TestExhaustiveArithmetic:
    @staticmethod
    def _check(spec, result, expected):
        assert type(result.coords) is tuple and len(result.coords) == spec.k
        assert all(type(c) is int and 0 <= c < spec.p for c in result.coords)
        assert result.coords == expected
        public = FieldElement(spec, expected)
        assert result == public and hash(result) == hash(public)

    @pytest.mark.parametrize("p, k", EXHAUSTIVE_FIELDS)
    def test_every_pair_and_element(self, p, k):
        spec = make_field(p, k)
        powers = _powers_of_gen(spec)
        elements = list(enumerate_field(spec))
        one = spec.one.coords
        for x in elements:
            xs = x.coords
            self._check(spec, -x, tuple(-c % p for c in xs))
            for y in elements:
                ys = y.coords
                self._check(spec, x + y, tuple((a + b) % p for a, b in zip(xs, ys)))
                self._check(spec, x - y, tuple((a - b) % p for a, b in zip(xs, ys)))
                self._check(spec, x * y, _ref_mul(spec, powers, xs, ys))
            image = xs
            for i in range(k + 1):
                self._check(spec, x.frobenius(i), image)
                power = one
                for _ in range(p):
                    power = _ref_mul(spec, powers, power, image)
                image = power
            if not x.is_zero:
                (inverse,) = [
                    y for y in elements if _ref_mul(spec, powers, xs, y.coords) == one
                ]
                self._check(spec, x.inv(), inverse.coords)


class TestTextFormats:
    def test_element_roundtrip_prime(self, F7):
        assert str(parse_element(F7, "5")) == "5"

    def test_element_roundtrip_extension(self, F9):
        e = parse_element(F9, "[2,1]")
        assert e == F9.element([2, 1])
        assert str(e) == "[2,1]"

    def test_bare_int_embeds_constant(self, F9):
        assert parse_element(F9, "2") == F9.element(2)

    def test_wrong_arity_rejected(self, F9):
        with pytest.raises(ValueError):
            parse_element(F9, "[1,2,3]")

    def test_field_spec_text_roundtrip(self, F9):
        assert F9.text() == "p=3,k=2,mod=[1,0,1]"
        assert parse_field_spec(F9.text()) == F9

    def test_field_spec_prime(self, F7):
        assert parse_field_spec("p=7") == F7
