"""Integer-encoded arithmetic kernel for the search engine.

Private module.  Field elements are encoded as their position in the
canonical base-p enumeration (``FieldElement.encoding``, 0..q-1);
polynomials are plain lists of encodings.  Every field uses dense q x q
operation tables, built once per field and process from the object layer
(sums of coordinates; products, inverses and Frobenius through discrete
logs of a generator of F_q^*), so fields are capped at
``TableKernel.MAX_ORDER`` elements.

The full half power f^e is one native big-integer power over F_p, by
Kronecker substitution: ``poly_pow`` reads f as one integer with a lane of
1, 2, 4 or 8 bytes per coefficient (``kronecker_lane``, wide enough that no
lane carries into the next; every p <= 17 up to genus 5), raises it to the
e-th power and reduces each lane mod p.  Past 8-byte lanes, and over
F_{p^k}, it is a square-and-multiply on the tables.  F_{p^k} encodings are
not residues, so lanes there need a reduction after every product and a
conversion to and from coordinates: for a degree-9 cube over F_49 that took
22-35 us against 28-31 us by tables (one earlier measurement: 32 against
24), no clear gain.

``scan`` tests each candidate of a task: squarefree gcd, the rank-one
prefilter on rows 1 and g if the task asks, then the full half power, rank
and p-rank.  A task whose squarefree count comes from the sieve below does
not count it: it tests squarefreeness only under ``require_smooth``, after
the end-row and rank tests, so the gcd runs on the few candidates those
keep.  With a fixed factor F, f = F u is squarefree exactly when F and the
cofactor u are and gcd(F, u) = 1, so ``squarefree_test`` checks u against
F's roots and the rest of F and, where it runs first, never forms f for a
candidate that fails.  Rows 1 and g need f^e (e = (p-1)/2) below x^p and
the power of f's reversal below x^(e+1); ``end_row_windows`` says which
coefficients of f each reads, for the scalar test, the join and the column
pass alike.  Both come from ``poly_pow`` given the length n it keeps: by
Kronecker substitution it reduces only the lowest n lanes, by tables it is
``poly_pow_trunc``.  ``end_rows`` forms the two rows and
``rows_could_be_rank_le_1`` compares them: the scalar test scan runs, and
the reference the join and the column pass are checked against.

A random piece of at least ``_COLUMN_LANES`` draws that runs the end-row
test, over a field with byte lanes (``TableKernel.byte_lanes``: F_p for
p <= 61, F_9, F_25 and F_49), first takes the column pass (``_columns``):
its gate, product and end-row test for every candidate at once, in the
kernel's lane format.  Its Euclid multiplies a divisor whose leading
coefficient is zero in a lane by x - s, s not a root of the dividend, until
the top is nonzero, which keeps the gcd.  It leaves a candidate undecided
only where every s it tries is a root of the dividend alone, or where its
Miller series meets f[v] = 0; the scan loop visits only those and the ones
no decided stage put out.

A task is a top-coefficient shard of an exhaustive search or a piece of
assignments: random draws or survivors of ``rank_one_survivors``.  The
search's plan (``search._plan``) decides what runs: whether the squarefree
count comes from ``squarefree_count``, a Moebius sieve over F_q[x] with one
linear system per square h^2, and whether the end-row test for rank one
(a = g-1) runs in scan or as the join, which it picks only with the sieve.
This module decides how a task runs.  The join runs once per search: the
family is affine, f = f0 + sum c_i b_i, so it matches the assignments of
the coefficients row 1 reads with those row g reads on the projective
class of the row; scan does not repeat the test on them.  Checking every
candidate stays the oracle.

The object layer in fields/poly/invariants is the reference implementation.
Everything here is cross-checked against it by the test suite, and every
witness a search emits is re-validated through the object layer before it
enters a report.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array

from .fields import FieldElement, FieldSpec, _coord_ops

# array typecodes of Kronecker lanes by width in bytes, and the narrowest
# lane that holds a value of 0 .. 8 bytes
_LANES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_NARROWEST = (1, 1, 2, 4, 4, 8, 8, 8, 8)
assert all(array(code).itemsize == size for size, code in _LANES.items())

# ---------------------------------------------------------------------------
# kernel


def _unit_powers(spec: FieldSpec, els: list[FieldElement]) -> list[int]:
    """Encodings of g^0 .. g^(q-2) for the first generator g of F_q^*;
    ValueError if none exists (a reducible modulus gives no field)."""
    q = spec.order
    one = spec.one
    for g in els[1:]:
        powers = [one]
        x = g
        while x != one and len(powers) < q - 1:
            powers.append(x)
            x = x * g
        if x == one and len(powers) == q - 1:
            return [el.encoding for el in powers]
    raise ValueError(f"{spec} is not a field: no element generates F_q^*")


class TableKernel:
    """F_{p^k} arithmetic through dense add/mul/inv/frobenius tables, built
    from object-layer elements and the logarithms of a generator of F_q^*."""

    # add and mul are q x q lists built in every process.  On an AMD EPYC
    # core a fresh build takes 35 ms for F_{3^5}, 0.40 s for F_{31^2},
    # 0.43 s and 16 MB for p = 1021, and 2.8 s and 75 MB for F_{3^7}.
    MAX_ORDER = 1024

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        q = p**k
        if q > self.MAX_ORDER:
            raise ValueError(
                f"field of order {q} too large for the table kernel "
                f"(cap {self.MAX_ORDER})"
            )
        self.char = p
        self.q = q
        spec = FieldSpec(p, k, modulus)
        els = [spec.from_encoding(x) for x in range(q)]
        coords = [el.coords for el in els]
        index = {el.coords: el.encoding for el in els}
        add = _coord_ops(spec).add
        self.add = [[index[add(ca, cb)] for cb in coords] for ca in coords]
        self.neg = [(-el).encoding for el in els]

        exp = self.exp = _unit_powers(spec, els)  # exp[i] = g^i
        logs = sorted(range(q - 1), key=exp.__getitem__)  # logs[x - 1] = log x
        exp2 = exp * 2  # g^i for i < 2(q-1): sums of two logs need no mod
        self.mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        self.inv = [0] + [exp[-la] for la in logs]
        self.frob_table = [0] + [exp[la * p % (q - 1)] for la in logs]
        # the column pass's lane format (``_columns``): lane_bits hold a sum
        # of two coordinates, zero's log Z passes any sum of two logs, and a
        # byte lane holds k fields of lane_bits and a sum of two logs at Z
        self.lane_bits = (2 * (p - 1)).bit_length()
        self.zero_log = 2 * (q - 2) + 1
        self.byte_lanes = k * self.lane_bits <= 8 and 2 * self.zero_log <= 255

    # -- polynomial primitives --

    def poly_mul_trunc(self, a, b, n):
        """The product's coefficients below x^n."""
        add = self.add
        mul = self.mul
        out = [0] * min(n, len(a) + len(b) - 1)
        for i, ai in enumerate(a[:n]):
            if ai:
                mrow = mul[ai]
                for j, bj in enumerate(b[: n - i], i):
                    if bj:
                        out[j] = add[out[j]][mrow[bj]]
        return out

    def poly_pow(self, a, e, n=None):
        """a^e, or with n its coefficients below x^n, zero-padded to n.  Over
        F_p, when ``kronecker_lane`` finds a lane, by Kronecker substitution:
        a below x^n is read as one integer, a coefficient a lane, raised to
        the e-th power natively, and the power's lowest n lanes reduced mod
        p.  Otherwise by square-and-multiply on the tables.  Without n,
        every lane is kept and nothing is masked or padded."""
        p = self.char
        whole = n is None
        if whole:
            n = (len(a) - 1) * e + 1
        else:
            a = a[:n]
        size = kronecker_lane(p, len(a), e) if self.q == p else 0
        if not size:
            out = self.poly_pow_trunc(a, e, n)
            return out if whole else out + [0] * (n - len(out))
        code = _LANES[size]
        lanes = array(code, a)
        if sys.byteorder == "big":
            lanes.byteswap()
        x = int.from_bytes(lanes.tobytes(), "little") ** e
        if not whole:  # the power runs past x^n
            x &= (1 << (8 * size * n)) - 1
        out = array(code, x.to_bytes(size * n, "little"))
        if sys.byteorder == "big":
            out.byteswap()
        return [c % p for c in out]

    def poly_pow_trunc(self, a, e, n):
        result = a[:n] if e else [1][:n]
        for bit in bin(e)[3:]:
            result = self.poly_mul_trunc(result, result, n)
            if bit == "1":
                result = self.poly_mul_trunc(result, a, n)
        return result

    def is_squarefree(self, f):
        """gcd(f, f') constant and f' nonzero; f must have exact degree
        len(f)-1 >= 1 (nonzero leading encoding)."""
        p = self.char
        mul = self.mul
        d = [mul[i % p][f[i]] for i in range(1, len(f))]
        while d and d[-1] == 0:
            d.pop()
        return bool(d) and self.coprime(list(f), d)

    def coprime(self, a, b):
        """gcd(a, b) constant, for a and b with nonzero last entries; both
        lists are overwritten (Euclid's algorithm)."""
        add = self.add
        mul = self.mul
        neg = self.neg
        inv = self.inv
        while True:  # each step overwrites a with a mod b, in place
            db = len(b) - 1
            if db == 0:
                return True
            binv = inv[b[db]]
            if len(a) == db + 2:
                # one degree down: the quotient q1 x + q0 comes from a's top
                # two coefficients, and r_j = a_j - q0 b_j - q1 b_(j-1)
                q1 = mul[a[-1]][binv]
                q0 = mul[add[a[-2]][neg[mul[q1][b[-2]]]]][binv]
                m0 = mul[neg[q0]]
                m1 = mul[neg[q1]]
                a[0] = add[a[0]][m0[b[0]]]
                for j in range(1, db):
                    a[j] = add[add[a[j]][m0[b[j]]]][m1[b[j - 1]]]
                del a[db:]
            else:
                for i in range(len(a) - 1 - db, -1, -1):
                    c = a[db + i]
                    if c:
                        qrow = mul[mul[c][binv]]
                        for j in range(db):
                            bj = b[j]
                            if bj:
                                a[i + j] = add[a[i + j]][neg[qrow[bj]]]
                        a[db + i] = 0
            while a and a[-1] == 0:
                a.pop()
            if not a:
                return False
            a, b = b, a

    # -- matrices --

    def rank(self, rows):
        """Rank by Gaussian elimination in place: rows[:rank] end in echelon form."""
        add = self.add
        mul = self.mul
        neg = self.neg
        inv = self.inv
        m = len(rows)
        n = len(rows[0]) if m else 0
        r = 0
        for col in range(n):
            pivot = -1
            for i in range(r, m):
                if rows[i][col]:
                    pivot = i
                    break
            if pivot < 0:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            prow = rows[r]
            pinv = inv[prow[col]]
            for i in range(r + 1, m):
                c = rows[i][col]
                if c:
                    nrow = mul[neg[mul[c][pinv]]]
                    row = rows[i]
                    for j in range(col, n):
                        pj = prow[j]
                        if pj:
                            row[j] = add[row[j]][nrow[pj]]
            r += 1
            if r == m:
                break
        return r

    def _matmul(self, x, y):
        add = self.add
        mul = self.mul
        cols = list(zip(*y))
        out = []
        for row in x:
            orow = []
            for col in cols:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = add[acc][mul[a][b]]
                orow.append(acc)
            out.append(orow)
        return out

    def p_rank(self, rows, g):
        frob = self.frob_table
        prod = rows
        twisted = rows
        for _ in range(1, g):
            twisted = [[frob[x] for x in row] for row in twisted]
            prod = self._matmul(twisted, prod)
        return self.rank([list(r) for r in prod])


def kronecker_lane(p, n, e):
    """The lane width in bytes for a^e by Kronecker substitution over F_p,
    a of n coefficients (residues 0..p-1), or 0 for none.  No coefficient
    of a^e before reduction exceeds B = n^(e-1) (p-1)^e: each is a sum of
    at most n^(e-1) products of e residues.  The lane is the narrowest of
    1, 2, 4 or 8 bytes holding B, so no lane carries into the next; there
    is none for B >= 2^64, e < 2 (nothing to gain) or an empty a."""
    if e < 2 or n < 1:
        return 0
    nbytes = (n ** (e - 1) * (p - 1) ** e).bit_length() + 7 >> 3
    return _NARROWEST[nbytes] if nbytes <= 8 else 0


_KERNELS: dict[tuple, TableKernel] = {}


def get_kernel(p: int, k: int, modulus: tuple[int, ...]) -> TableKernel:
    key = (p, k, tuple(modulus))
    kern = _KERNELS.get(key)
    if kern is None:
        kern = TableKernel(p, k, tuple(modulus))
        _KERNELS[key] = kern
    return kern


# ---------------------------------------------------------------------------
# per-candidate pipeline and shard scan


def matrix_rows(kappa, g, p):
    """Rows of [kappa_{p*i - j}] (1-indexed i, j) from the list kappa;
    out-of-range reads are 0.  Row i is kappa[p*i - g : p*i] reversed, read
    from kappa with g zeros in front and zeros behind up to index p*g."""
    padded = [0] * g + kappa + [0] * (p * g - len(kappa))
    return [padded[p * i + g - 1 : p * i - 1 : -1] for i in range(1, g + 1)]


def end_row_windows(p, v, length):
    """The slices of f (``length`` coefficients, f[:v] = 0) that rows 1 and
    g read, e = (p-1)/2: f^e below x^p is x^(ev) (f/x^v)^e below x^n, n =
    p - ev, so row 1 reads f[v : p - (e-1)v], n wide (f's end may clip it;
    empty for n <= 0, a zero row 1), and row g f's top e + 1 coefficients.
    Each row is read off the e-th power of its window (row g's reversed)
    below x^n, n the slice's width."""
    e = (p - 1) // 2
    return slice(v, max(v, p - (e - 1) * v)), slice(max(0, length - e - 1), length)


def _row1(kern, f, g):
    """Row 1 of the matrix from f, or from a prefix of f holding row 1's
    window (``end_row_windows``): (f/x^v)^e below x^n, v the low zeros of f
    and n the window's width, from ``poly_pow``; row 1 holds its c_m at
    column n - 1 - m.  An empty window gives a zero row 1."""
    p = kern.char
    v = next((i for i, x in enumerate(f) if x), len(f))
    row1 = end_row_windows(p, v, len(f))[0]
    series = kern.poly_pow(f[row1], (p - 1) // 2, row1.stop - v)
    return (series[::-1] + [0] * g)[:g]


def _rowg(kern, f, g):
    """Row g of the matrix from f or its top (``end_row_windows``): the
    power of that window, reversed, below x^(e+1) ends row g."""
    e = (kern.char - 1) // 2
    top = f[end_row_windows(kern.char, 0, len(f))[1]]
    return ([0] * g + kern.poly_pow(top[::-1], e, e + 1))[-g:]


def end_rows(kern, f, g):
    """Rows 1 and g of the matrix from truncated powers of f and of its
    reversal."""
    return _row1(kern, f, g), _rowg(kern, f, g)


def rows_could_be_rank_le_1(kern, r1, rg):
    """False only when some 2x2 minor of the two rows is provably nonzero
    (which forces rank >= 2)."""
    j0 = -1
    for j, v in enumerate(r1):
        if v:
            j0 = j
            break
    if j0 < 0:
        return True
    mul_a = kern.mul[r1[j0]]
    mul_b = kern.mul[rg[j0]]
    for j in range(len(r1)):
        if mul_a[rg[j]] != mul_b[r1[j]]:
            return False
    return True


def _cofactor_split(kern, factor):
    """(R, N) for the fixed factor F: F's roots R in F_q and N = F /
    prod(x - r), by synthetic division; f = F u is squarefree exactly when
    u is, u(r) != 0 on R and gcd(u, N) = 1.  ([], [1]) without a factor or
    with a constant one, and None when F is not squarefree."""
    if not factor or len(factor) == 1:
        return [], [1]
    if not kern.is_squarefree(factor):
        return None
    add = kern.add
    mul = kern.mul
    roots = []
    rest = list(factor)
    for r in range(kern.q):
        acc = 0
        quot = []
        for c in reversed(rest):
            acc = add[mul[r][acc]][c]
            quot.append(acc)
        if not acc:
            roots.append(r)
            rest = quot[-2::-1]
    return roots, rest


def squarefree_test(kern, factor):
    """A test of the cofactor u equal to ``kern.is_squarefree`` of f =
    factor * u (no factor: f = u), for u of exact degree len(u) - 1, without
    the product: f is squarefree exactly when the factor F and u are and
    gcd(F, u) = 1.  Once per F come F's roots R and N (``_cofactor_split``);
    each u is checked for u(r) != 0 on R (Horner), gcd(u, N) = 1 when deg N
    >= 1, and squarefree (a constant u is)."""
    is_squarefree = kern.is_squarefree
    split = _cofactor_split(kern, factor)
    if split is None:
        return lambda u: False
    roots, rest = split
    if not roots and len(rest) == 1:
        return is_squarefree
    add = kern.add
    mul = kern.mul
    zero_root = 0 in roots  # u(0) is u[0]
    root_rows = [mul[r] for r in roots if r]

    def test(u):
        if zero_root and not u[0]:
            return False
        for mr in root_rows:
            acc = 0
            for c in reversed(u):
                acc = add[mr[acc]][c]
            if not acc:
                return False
        if len(rest) > 1 and not kern.coprime(list(u), list(rest)):
            return False
        return len(u) == 1 or is_squarefree(u)

    return test


def _class_key(kern, row):
    """The projective class of a row (scaled so its first nonzero entry is
    1), or None for the zero row."""
    for x in row:
        if x:
            scale = kern.mul[kern.inv[x]]
            return tuple(scale[y] for y in row)
    return None


def _combine(kern, base, terms, lo, hi):
    """Entries lo..hi-1 of base + sum c * b over the (c, b) in terms."""
    add = kern.add
    out = base[lo:hi]
    for c, b in terms:
        if c:
            m = kern.mul[c]
            out = [add[x][m[y]] for x, y in zip(out, b[lo:hi])]
    return out


def rank_one_survivors(kern, f0, basis, free, require_smooth=False):
    """The assignments of f = f0 + sum c_i b_i (i in ``free``, ascending,
    ``basis`` aligned) whose matrix rows 1 and g are proportional (a zero
    row is proportional to every row), which rank <= 1 forces.  They come in
    enumeration order (the top free coefficient most significant, the
    lowest fastest), each as the little-endian bytes of its values in
    ascending free index, one byte a value or two past q = 256.

    With f[:v] = 0 across the family, a slot is read by a row when its b_i
    meets that row's window (``end_row_windows``).  The top slot is the
    outermost loop, then slots both rows read.  Slots only row 1 reads are
    bucketed by the class of row 1, once per window of f it reads, slots
    only row g reads by the class of row g, and slots neither reads are
    enumerated for each joined pair only.  Row 1's window holds f[:2], so
    under ``require_smooth`` a row-1 assignment that leaves f[0] = f[1] = 0
    is dropped: x^2 divides every completion.
    """
    q = kern.q
    degree = len(f0) - 1
    g = (degree - 1) // 2
    v = min(j for b in [f0, *basis] for j, x in enumerate(b) if x)
    row1, rowg = end_row_windows(kern.char, v, degree + 1)

    groups = {"outer": [], "row1": [], "rowg": [], "inner": []}
    for pos, b in enumerate(basis[:-1]):
        r1 = any(b[row1])
        rg = any(b[rowg])
        key = "outer" if r1 and rg else "row1" if r1 else "rowg" if rg else "inner"
        groups[key].append(pos)

    # a survivor is kept as the number whose little-endian bytes it is: the
    # top slot most significant, so numbers sort in enumeration order
    size = 1 if q <= 256 else 2
    weights = [256 ** (size * pos) for pos in range(len(free))]

    def assignments(key):
        """(assignment, its part of the number) for every assignment of the
        group's slots."""
        for vals in itertools.product(range(q), repeat=len(groups[key])):
            yield vals, sum(c * weights[pos] for pos, c in zip(groups[key], vals))

    def terms(key, vals):
        return [(c, basis[pos]) for pos, c in zip(groups[key], vals)]

    def classes(key, base, lo, hi, row):
        """The group's numbers by the class of the row it reads from f[lo:hi]."""
        found: dict = {}
        for vals, n in assignments(key):
            window = _combine(kern, base, terms(key, vals), lo, hi)
            if key == "row1" and require_smooth and not (window[0] or window[1]):
                continue
            found.setdefault(_class_key(kern, row(kern, window, g)), []).append(n)
        return found

    by_window: dict = {}  # row 1's classes, once per window of f it reads
    inner = [n for _, n in assignments("inner")]
    for top in range(q):
        if any(basis[-1][row1]):
            by_window.clear()  # no window recurs under another top value
        n_top = top * weights[-1]
        top_base = _combine(kern, f0, [(top, basis[-1])], 0, degree + 1)
        numbers = []
        for outer, n_outer in assignments("outer"):
            base = _combine(kern, top_base, terms("outer", outer), 0, degree + 1)
            window = tuple(base[: row1.stop])
            if window not in by_window:
                by_window[window] = classes("row1", base, 0, row1.stop, _row1)
            by_row1 = by_window[window]
            by_rowg = classes("rowg", base, rowg.start, degree + 1, _rowg)
            every_b = [n for ns in by_rowg.values() for n in ns]
            wild_b = by_rowg.get(None, [])
            for key, a_list in by_row1.items():
                b_list = every_b if key is None else by_rowg.get(key, []) + wild_b
                for n_a in a_list:
                    for n_b in b_list:
                        n_ab = n_top + n_outer + n_a + n_b
                        numbers.extend(n_ab + n_d for n_d in inner)
        numbers.sort()
        for n in numbers:
            yield n.to_bytes(size * len(free), "little")


# ---------------------------------------------------------------------------
# exact squarefree count of an affine family


def _irreducibles(kern, top):
    """The monic irreducibles of degree d = 1 .. top, one iterator per
    degree, ascending by index sum c_i q^i (i < d).  One pass per degree
    fills a bytearray of each monic's least irreducible-factor degree:
    linear factors by evaluating every monic at each r in F_q, Horner over
    the index digits in bulk, and a factor of degree k >= 2 from the
    products a b with a irreducible of degree k and b free of factors below
    degree k."""
    q = kern.q
    mul = kern.mul
    powers = [q**i for i in range(top)]

    def horner(vals, r):
        """The values at r of the x h + c (h in order, c = 0 .. q-1 fastest)
        from those of the h: r h(r) + c.  In bulk, as bytes, at q <= 256."""
        if q > 256:
            return [x for v in vals for x in kern.add[mul[r][v]]]
        rv = vals.translate(bytes(mul[r]).ljust(256, b"\0"))
        out = rv * q
        for c in range(q):
            out[c::q] = rv.translate(bytes(kern.add[c]).ljust(256, b"\0"))
        return out

    def monics(d, k):
        # the monic polynomials of degree d free of factors below degree k
        free = least[d].translate(bytes(v >= k for v in range(256)))
        lows = itertools.compress(itertools.product(range(q), repeat=d), free)
        return ([*low[::-1], 1] for low in lows)

    least = [b""]  # per degree
    for d in range(1, top + 1):
        found = bytearray(q**d)
        for r in range(q):
            vals = bytearray(b"\1") if q <= 256 else [1]  # h = 1 at r
            for _ in range(d):
                vals = horner(vals, r)
            i = -1
            for _ in range(vals.count(0)):  # the monics with root r
                i = vals.index(0, i + 1)
                found[i] = 1
        for k in range(2, d // 2 + 1):
            bs = list(monics(d - k, k))
            for a in monics(k, k):  # the irreducibles of degree k
                for b in bs:
                    digits = kern.poly_mul_trunc(a, b, d)  # a b below x^d
                    found[sum(map(operator.mul, digits, powers))] = k
        least.append(found.replace(b"\0", bytes([d])))  # unmarked: irreducible
        yield monics(d, d)


def _annihilator(kern, f0, basis):
    """The functionals lam vanishing on every b_i (b_i ending at ascending
    indices): one per index t0 no b_i ends at, 1 there and 0 at the others,
    as (t0, its other nonzero (index, value) entries, lam(f0)).  With no
    factor, they read the fixed coefficients."""
    add = kern.add
    mul = kern.mul

    def dot(u, w):
        acc = 0
        for x, y in zip(u, w):
            if x and y:
                acc = add[acc][mul[x][y]]
        return acc

    ends = [max(j for j, x in enumerate(b) if x) for b in basis]
    out = []
    for t0 in sorted(set(range(len(f0))) - set(ends)):
        lam = [0] * len(f0)
        lam[t0] = 1
        for b, t in zip(basis, ends):  # lam is 0 from t on
            lam[t] = mul[kern.neg[dot(lam, b)]][kern.inv[b[t]]]
        target = dot(lam, f0)
        lam[t0] = 0
        out.append((t0, [(t, v) for t, v in enumerate(lam) if v], target))
    return out


def squarefree_count(kern, f0, basis):
    """#{c in F_q^n : f0 + sum c_i b_i is squarefree}, exactly, without
    enumerating c.  f0 has exact degree D = len(f0) - 1.

    Moebius over F_q[x] (Rosen, Number Theory in Function Fields, ch. 2):
    the count is the sum over monic h with 2 deg h <= D of mu(h) *
    #{c : h^2 | f(c)}.  With lam_1 .. lam_s the functionals vanishing on
    every b_i (``_annihilator``, s = D + 1 - n), f = h^2 r is in the family
    exactly when lam_k(h^2 r) = lam_k(f0) for every k: s equations in the
    D - 2 deg h + 1 coefficients of r, read off h^2, with q^(columns - rank)
    solutions or none.  A depth-first walk builds each squarefree h once,
    from its largest irreducible factor down, and h^2 with one product per
    step; mu comes from the depth, and an inconsistent h drops every
    multiple of it.
    """
    q = kern.q
    add = kern.add
    mul = kern.mul
    poly_mul_trunc = kern.poly_mul_trunc
    degree = len(f0) - 1
    top = degree // 2
    system = _annihilator(kern, f0, basis)

    def solutions(hh):
        # #{c : hh | f(c)}, or 0.  Row k reads lam_k(hh x^j), j < cols, and
        # (hh x^j)_t = hh[t - j] is padded[degree + 1 - t + j]
        cols = degree + 2 - len(hh)
        padded = [0] * cols + hh[::-1] + [0] * cols
        rows = []
        for t0, terms, target in system:
            row = padded[degree + 1 - t0 : degree + 1 - t0 + cols]
            for t, v in terms:
                mv = mul[v]
                row = [add[x][mv[y]] for x, y in zip(row, padded[degree + 1 - t :])]
            rows.append(row + [target])
        # rank leaves rows in echelon form: the system has no solution when
        # the last pivot row is zero but for its target
        rank = kern.rank(rows)
        return 0 if rank and not any(rows[rank - 1][:-1]) else q ** (cols - rank)

    def walk(limit, budget, hh, sign):
        # products of hh's h with distinct small[j], j < limit
        acc = 0
        for j in range(limit):
            d, sq = small[j]
            if d > budget:
                break
            prod = poly_mul_trunc(sq, hh, degree + 1)
            n = solutions(prod)
            if n:
                acc += sign * n + walk(j, budget - d, prod, -sign)
        return acc

    small = []  # (degree, h^2) of the irreducibles h with 2 deg h <= top
    total = q ** len(basis)
    for d, hs in enumerate(_irreducibles(kern, top), 1):
        for h in hs:
            hh = poly_mul_trunc(h, h, degree + 1)
            n = solutions(hh)
            if n:
                total += walk(len(small), top - d, hh, 1) - n
            if 2 * d <= top:
                small.append((d, hh))
    return total


# the draws a random piece that runs the end-row test needs for the column
# pass (``_columns``).  Its fixed cost, once per process, is the module's
# import, 3.5-6 ms with the source compiled afresh, and its tables, about
# 0.4 ms for F_49 or F_61; it saves about 14 us a lane (script 2: 15.0-15.4
# us against 0.9-1.0 us a candidate, 1.8 us before the gate shifted its
# divisors), so repays that from about 450 lanes.  A piece that runs the
# gate alone saves only 0.4-4 us a lane.  Set-up runs, shards and survivor
# pieces never load the module
_COLUMN_LANES = 512


def scan(task: dict) -> dict:
    """Run one task of a search; pure function of the task description.

    A task checks ``count`` candidates: its ``draws`` (sample-major,
    ascending free index), random or rank-one survivors, or, as the shard
    ``top``, every assignment of the free coefficients below the top one.
    Returns enumerated/squarefree/rank/p-rank counts of the candidates
    checked and up to ``collect_limit`` matching coefficient vectors
    (encodings, ascending); the squarefree count is 0 unless the task's
    ``count_squarefree`` asks for it.

    Per candidate: ``squarefree_test`` on the cofactor u first when the task
    counts, f = factor * u only if the candidate goes on, the end-row test
    ``rows_could_be_rank_le_1`` on ``end_rows`` when the task's
    ``prefilter`` says so, then the half power and rank.  A task that does
    not count tests u only under ``require_smooth``, after the rank test,
    just before the rank match is counted.  Then the p-rank.

    A piece that takes the column pass (module docstring; ``_columns`` is
    imported only then) hands it its draws: the loop takes the pass's
    product and verdicts and runs a scalar test only where it left one open.
    """
    kern = get_kernel(task["p"], task["k"], tuple(task["modulus"]))
    q = kern.q
    p = kern.char
    e = (p - 1) // 2
    degree = task["degree"]
    g = (degree - 1) // 2
    factor = task["factor"]
    free = task["free"]
    require_smooth = task["require_smooth"]
    target_a = task["target_a"]
    target_p_rank = task["target_p_rank"]
    limit = task["collect_limit"]
    target_rank = g - target_a if target_a is not None else None
    prefilter = task["prefilter"]
    count_squarefree = task["count_squarefree"]
    smooth_last = require_smooth and not count_squarefree

    cof_len = degree + 1 - (len(factor) - 1 if factor else 0)
    u = [0] * cof_len
    for idx, enc in task["fixed"]:
        u[idx] = enc

    poly_mul_trunc = kern.poly_mul_trunc
    squarefree = squarefree_test(kern, factor)
    poly_pow = kern.poly_pow
    rank = kern.rank
    p_rank = kern.p_rank

    n_sq = 0
    passed = None
    if "draws" in task:
        slots = free
        values = zip(*[iter(task["draws"])] * len(slots))
        if prefilter and kern.byte_lanes and task["count"] >= _COLUMN_LANES:
            from ._columns import column_pass

            passed = column_pass(kern, task, u)
    else:
        # the shard fixes the top free coefficient; product varies its last
        # slot fastest, so the lowest free index moves fastest
        if free:
            u[free[-1]] = task["top"]
        slots = free[-2::-1]
        values = itertools.product(range(q), repeat=len(slots))
    if passed is None:  # nothing known: the gate, product and end-row test run here
        candidates = zip(values, *[itertools.repeat(None)] * 3)
    else:
        n_sq, candidates = passed
    filtered = target_rank is not None or target_p_rank is not None

    n_rank = 0
    n_pr = 0
    wits: list[list[int]] = []

    for vals, sq, rows_pass, f in candidates:
        for i, v in zip(slots, vals):
            u[i] = v

        if count_squarefree:
            if sq is None:
                sq = squarefree(u)
            if sq:
                n_sq += 1
            if require_smooth and not sq:
                continue
        if f is None:
            f = poly_mul_trunc(factor, u, degree + 1) if factor else u

        if filtered:
            if prefilter and not (
                rows_could_be_rank_le_1(kern, *end_rows(kern, f, g))
                if rows_pass is None
                else rows_pass
            ):
                continue
            kappa = poly_pow(f, e)
            rows = matrix_rows(kappa, g, p)
            if target_rank is not None:
                if rank([row[:] for row in rows]) != target_rank:
                    continue
        if smooth_last and not squarefree(u):
            continue
        n_rank += 1
        if target_p_rank is not None:
            if p_rank(rows, g) != target_p_rank:
                continue
        n_pr += 1
        if len(wits) < limit:
            wits.append(list(f))

    return {
        "enumerated": task["count"],
        "squarefree": n_sq,
        "rank_matched": n_rank,
        "p_rank_matched": n_pr,
        "witnesses": wits,
    }
