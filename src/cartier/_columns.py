"""The column pass of ``_kernel.scan``: a random piece's cofactor gate,
product and rank-one end-row test for every candidate at once.

Private module; ``scan`` imports it only for a piece of at least
``_kernel._COLUMN_LANES`` random draws that runs the end-row test, over a
field with byte lanes; such a piece always counts squarefree candidates, so
both stages run on every lane.  The piece is laid out as one ``bytes``
column per coefficient slot, one byte (a lane) per candidate.  An element
of F_q sits in a lane in sum form: base-p coordinate i in the bit field
[w i, w (i+1)), w the kernel's ``lane_bits``, so two columns add as one big
integer with no carry out of a field or a lane, and one ``bytes.translate``
reduces every field mod p.  Scaling by a constant, negation and inverses
are one translate each.  A lane-by-lane product translates both columns to
discrete logs (zero to the kernel's sentinel ``zero_log``), adds them as big
integers and translates the sums back: a sum below the sentinel is the log
of the product, one at or past it had a zero factor.  The lane format, the
windows of f the end rows read (``end_row_windows``) and every table come
from the ``TableKernel``, so no field arithmetic and no rule of the end-row
test is written here a second time.

The gate follows the generic path of Euclid, each remainder one column
shorter than its divisor.  Where a divisor's leading coefficient is zero in
a lane, the lane multiplies that divisor by x - s, s not a root of the
dividend (x first), until its top is nonzero: the gcd and the columns'
shapes stay as they were (``euclid_undecided``).  A zero divisor, or a root
s of both, decides the lane out.  The end rows come from Miller's
power-series recurrence (``series``), which the tests check lane by lane
against the kernel's ``poly_pow``.  A lane whose every tried s is a root of
the dividend alone, or where f[v] = 0 at the piece's low-zero count v, is
left undecided; scan runs it through the scalar ``squarefree_test`` and
``rows_could_be_rank_le_1`` on ``end_rows``, which stay the oracle.
"""

from __future__ import annotations

import functools
from itertools import compress

from ._kernel import _cofactor_split, end_row_windows


class Lanes:
    """Byte-lane column arithmetic over one field, from a kernel's tables.
    Columns are ``bytes`` of sum forms, all of one length."""

    def __init__(self, kern):
        p, q = kern.char, kern.q
        self.kern = kern
        w = kern.lane_bits
        form = []  # the sum form of each encoding
        for x in range(q):
            s = 0
            for i in range(8):
                s |= x % p << w * i
                x //= p
            form.append(s)
        self.form = form
        self.encode = bytes(form).ljust(256, b"\0")
        decode = bytearray(256)
        for x, s in enumerate(form):
            decode[s] = x
        self.decode = bytes(decode)
        add = bytearray(256)
        for a in range(q):
            for b in range(q):
                add[form[a] + form[b]] = form[kern.add[a][b]]
        self._add = bytes(add)
        self._neg = self._table(kern.neg)
        self._inv = self._table(kern.inv)
        log = bytearray(256)
        log[0] = kern.zero_log
        for i, x in enumerate(kern.exp):
            log[form[x]] = i
        self._log = bytes(log)
        self._scaled: dict[int, bytes] = {}
        self._exps: dict[int, bytes] = {}

    def _table(self, image):
        """The translate table of x -> image[x] on sum forms."""
        table = bytearray(256)
        for x, y in enumerate(image):
            table[self.form[x]] = self.form[y]
        return bytes(table)

    def column(self, x, n):
        """The constant column of n lanes of the encoding x."""
        return bytes([self.form[x]]) * n

    def add(self, a, b):
        s = int.from_bytes(a, "little") + int.from_bytes(b, "little")
        return s.to_bytes(len(a), "little").translate(self._add)

    def neg(self, a):
        return a.translate(self._neg)

    def inv(self, a):
        """Lane-wise inverses; a zero lane stays zero."""
        return a.translate(self._inv)

    def scale(self, a, c):
        """c a for the encoding c."""
        table = self._scaled.get(c)
        if table is None:
            table = self._scaled[c] = self._table(self.kern.mul[c])
        return a.translate(table)

    def log(self, a):
        """The lanes' discrete logs as one integer, zero lanes at Z."""
        return int.from_bytes(a.translate(self._log), "little")

    def exp(self, s, n, c=1):
        """c times the elements whose logs the n lanes of s add up to, for
        the encoding c."""
        table = self._exps.get(c)
        if table is None:
            units = [self.form[self.kern.mul[c][x]] for x in self.kern.exp]
            z = self.kern.zero_log
            table = bytes(units[i % len(units)] if i < z else 0 for i in range(256))
            self._exps[c] = table
        return s.to_bytes(n, "little").translate(table)

    def mul(self, a, b):
        """a b lane by lane."""
        return self.exp(self.log(a) + self.log(b), len(a))

    def zeros(self, a):
        """The mask of a's zero lanes: one integer, a byte of 1 per zero
        lane and of 0 per other lane."""
        return int.from_bytes(a.translate(_ZERO), "little")


_ZERO = b"\1" + bytes(255)  # 1 for a zero lane, 0 for any other
_NONZERO = b"\0" + b"\1" * 255

# the ``Lanes`` of a kernel with ``byte_lanes``, built once per process
lanes_for = functools.cache(Lanes)


def _nonzero(col):
    """Whether some lane of the column is nonzero."""
    return col != bytes(len(col))


# the lanes of a piece left undecided by one Euclid with the shift by x
# alone from which on the pass runs them again with every shift.  That costs
# about 0.2 ms a piece on script 2's few such lanes, and 5 us a lane on the
# 370 of a piece of the F_7 family with c0 = 0; the scalar gate 6-8 us a lane
_PACKED_LANES = 64


def euclid_undecided(L, a, b):
    """Euclid on the columns a and b, a with a nonzero top in every lane:
    (the mask of lanes where gcd(a, b) != 1, the mask of lanes left
    undecided).  It runs on every lane with the shift by x alone; where at
    least ``_PACKED_LANES`` lanes need another, it runs those again, packed
    into narrower columns, with every shift x - s, s in F_q."""
    out, undecided = _euclid(L, a, b, (0,))
    n = len(b[0])
    picked = undecided.to_bytes(n, "little")
    if picked.count(1) >= _PACKED_LANES:
        lanes = list(compress(range(n), picked))
        packed = [[bytes(map(col.__getitem__, lanes)) for col in x] for x in (a, b)]
        out_2, undecided = _euclid(L, *packed, range(L.kern.q))
        out |= _spread(out_2, lanes, n)
        undecided = _spread(undecided, lanes, n)
    return out, undecided


def _euclid(L, a, b, shifts):
    """``euclid_undecided`` with the given shifts, on every lane.

    Euclid's generic path: each divisor has a nonzero top, so the
    remainders' degrees fall one at a time down to a unit, and gcd(a, b) =
    1.  Where a divisor's top is zero in a lane, the lane multiplies it by
    x - s for the first s of ``shifts`` with a(s) != 0, until its top is
    nonzero; gcd(a, (x - s) b) = gcd(a, b) as x - s does not divide a, so
    the step count and the columns' lengths stay those of the generic path.
    The lane is out where the divisor is zero (gcd(a, 0) = a, of degree at
    least 1) or where a and b share a root s tried on the way, and undecided
    where each s is a root of a alone; a decided or undecided lane keeps its
    verdict through the later steps."""
    a, b = list(a), list(b)
    n = len(b[0])
    out = undecided = 0
    while True:
        # the lanes whose top 1, 2, ... columns of b are zero
        tops = [L.zeros(b[-1]) & ~(out | undecided)]
        for col in b[-2::-1]:
            if not tops[-1]:
                break
            tops.append(tops[-1] & L.zeros(col))
        zero = tops[-1] if len(tops) == len(b) else 0
        out |= zero
        top = tops[0] & ~zero
        for s in shifts:
            if not top:
                break
            a_root = L.zeros(_value(L, a, s)) & top
            if top & ~a_root:
                b = _shifted(L, b, s, [x & top & ~a_root for x in tops if x])
            if a_root:
                b_root = L.zeros(_value(L, b, s))
                out |= a_root & b_root
                a_root &= ~b_root
            top = a_root
        undecided |= top
        db = len(b) - 1
        if not db:
            return out, undecided
        minus_inv = L.log(L.neg(L.inv(b[-1])))
        logs = [L.log(x) if _nonzero(x) else None for x in b[:db]]
        for i in range(len(a) - 1 - db, -1, -1):  # a -= (a_top / b_top) x^i b
            lq = L.log(L.exp(L.log(a[db + i]) + minus_inv, n))
            for j, lb in enumerate(logs):
                if lb is not None:
                    a[i + j] = L.add(a[i + j], L.exp(lq + lb, n))
        del a[db:]
        a, b = b, a


def _value(L, cols, s):
    """The column of the lanes' values at x = s, for the encoding s, of the
    polynomial whose coefficient columns are cols, by Horner."""
    if not s:
        return cols[0]
    value = cols[-1]
    for col in cols[-2::-1]:
        value = L.add(L.scale(value, s), col)
    return value


def _shifted(L, b, s, rounds):
    """b times x - s once in the lanes of each mask of rounds, where b's top
    is zero at that round, and b in the other lanes.  The lanes are picked
    from each round's product as integers."""
    n = len(b[0])
    ints = [int.from_bytes(col, "little") for col in b]
    for lanes in rounds:
        up = [0, *ints[:-1]]  # x b, its top (zero in the lanes) dropped
        if s:  # x b - s b
            cols = [x.to_bytes(n, "little") for x in ints]
            minus_s = L.kern.neg[s]
            up = [
                int.from_bytes(L.add(x, L.scale(col, minus_s)), "little")
                for x, col in zip([bytes(n), *cols], cols)
            ]
        pick = lanes * 255
        keep = ~pick
        ints = [x & pick | y & keep for x, y in zip(up, ints)]
    return [x.to_bytes(n, "little") for x in ints]


def _spread(mask, lanes, n):
    """The mask over n lanes holding the given narrow mask's bytes at the
    given lanes, zero elsewhere."""
    spread = bytearray(n)
    for lane, bit in zip(lanes, mask.to_bytes(len(lanes), "little")):
        spread[lane] = bit
    return int.from_bytes(spread, "little")


def series(L, a, e, n):
    """c_0 .. c_(n-1) of (sum a_k x^k)^e from the columns a, by Miller's
    recurrence (Knuth, TAOCP vol. 2, 4.7) m a_0 c_m = sum_k ((e+1)k - m)
    a_k c_(m-k), and the mask of lanes where a_0 = 0, which it leaves
    undecided.  It divides by m a_0, so it is exact for n <= p, which the
    end rows' windows keep to; ``TableKernel.poly_pow(a, e, n)`` is the
    scalar power it must equal lane by lane."""
    p = L.kern.char
    width = len(a[0])
    c = a[0]
    for _ in range(e - 1):
        c = L.mul(c, a[0])
    out = [c]
    clogs = [L.log(c)]
    logs = [L.log(x) if _nonzero(x) else None for x in a]
    la0_inv = L.log(L.inv(a[0]))
    for m in range(1, n):
        acc = bytes(width)
        for k in range(1, min(m, len(a) - 1) + 1):
            coef = ((e + 1) * k - m) % p
            if coef and logs[k] is not None:
                acc = L.add(acc, L.exp(logs[k] + clogs[m - k], width, coef))
        # c_m = acc / (m a_0); m < p is a unit
        cm = L.exp(L.log(acc) + la0_inv, width, L.kern.inv[m])
        out.append(cm)
        clogs.append(L.log(cm))
    return out, L.zeros(a[0])


# a lane's code: bits for the gate decided out (u vanishes at a root of the
# factor, or Euclid finds a common factor) and undecided, and for the
# end-row test undecided and decided out (a nonzero 2x2 minor); a lane with
# none of them passed each stage run
_GATE_OUT, _GATE_OPEN, _ROWS_OPEN, _ROWS_OUT = 1, 2, 4, 8


def lane_codes(L, task, u):
    """(each lane's code, f's columns) for a piece of random draws; u holds
    the cofactor's fixed values.

    Both stages run on every lane.  The gate, as ``squarefree_test``: u(r)
    != 0 on the factor's roots by Horner, then Euclid for gcd(u, N) = 1 and
    gcd(u, u') = 1.  The end-row test: rows 1 and g by Miller's series,
    equal to the ones ``end_rows`` forms, and every 2x2 minor of the two."""
    kern = L.kern
    n = task["count"]
    free = task["free"]
    draws = task["draws"].tobytes()
    cols = [L.column(x, n) for x in u]
    for pos, i in enumerate(free):
        cols[i] = draws[pos :: len(free)].translate(L.encode)
    code = _gate(L, cols, _cofactor_split(kern, task["factor"]))
    f = cols
    if task["factor"]:
        f = [bytes(n)] * (task["degree"] + 1)
        for i, c in enumerate(task["factor"]):
            for j, col in enumerate(cols[: len(f) - i]):
                if c and _nonzero(col):
                    f[i + j] = L.add(f[i + j], L.scale(col, c))
    code |= _end_rows(L, f, (task["degree"] - 1) // 2)
    return code.to_bytes(n, "little"), f


def _gate(L, u, split):
    """The gate's bits of each lane's code, for the cofactor columns u and
    the factor's ``_cofactor_split``."""
    n = len(u[0])
    if split is None:  # the factor is not squarefree
        return int.from_bytes(b"\1" * n, "little") * _GATE_OUT
    roots, rest = split
    out = undecided = 0
    for r in roots:
        out |= L.zeros(_value(L, u, r))
    p = L.kern.char
    derivative = [L.scale(col, i % p) for i, col in enumerate(u) if i]
    while len(derivative) > 1 and not _nonzero(derivative[-1]):
        derivative.pop()  # a zero u' stays one zero column: every lane out
    for b in [L.column(x, n) for x in rest], derivative:
        if b:
            out_b, open_b = euclid_undecided(L, u, b)
            out |= out_b
            undecided |= open_b
    return out * _GATE_OUT | undecided * _GATE_OPEN


def _end_rows(L, f, g):
    """The end-row test's bits of each lane's code, for f's columns."""
    p = L.kern.char
    e = (p - 1) // 2
    n = len(f[0])
    v = next((i for i, col in enumerate(f) if _nonzero(col)), len(f))
    row1, rowg = end_row_windows(p, v, len(f))
    rg, undecided = series(L, f[rowg][::-1], e, e + 1)
    rg = ([None] * g + rg)[-g:]
    differ = 0
    if f[row1]:  # else row 1 is zero in every lane
        n1 = row1.stop - v  # the window's width
        r1, undecided_1 = series(L, f[row1], e, n1)
        undecided |= undecided_1
        r1 = (r1[::-1] + [None] * g)[:g]  # row 1 holds c_m at column n1 - 1 - m
        log1 = [None if x is None else L.log(x) for x in r1]
        logg = [None if x is None else L.log(x) for x in rg]

        def product(i, j):  # r1_i rg_j, as an integer
            if log1[i] is None or logg[j] is None:
                return 0
            return int.from_bytes(L.exp(log1[i] + logg[j], n), "little")

        for i in range(g):
            for j in range(i + 1, g):
                differ |= product(i, j) ^ product(j, i)
    out = differ.to_bytes(n, "little").translate(_NONZERO)
    return undecided * _ROWS_OPEN | int.from_bytes(out, "little") * _ROWS_OUT


def column_pass(kern, task, u):
    """The scan loop's candidates for a piece of random draws: (the
    squarefree lanes the loop does not visit, an iterator of (values,
    squarefree, rows pass, f) over the lanes it does, in lane order).  The
    values are the lane's draws, as scan zips them; a verdict is True or
    False where the pass decided it, None where it did not; f is the
    product.  The loop visits every lane the pass left undecided at the
    gate, and every lane no decided stage put out."""
    L = lanes_for(kern)
    codes, f = lane_codes(L, task, u)
    sq, ok, visit = zip(*[_verdicts(c, task["require_smooth"]) for c in range(16)])
    visits = codes.translate(bytes(visit).ljust(256, b"\0"))
    unvisited_sq = bytes(s is True and not v for s, v in zip(sq, visit))
    n_sq = codes.translate(unvisited_sq.ljust(256, b"\0")).count(1)
    nf = len(task["free"])
    draws = task["draws"]
    f = [col.translate(L.decode) for col in f]
    return n_sq, (
        (draws[i * nf : i * nf + nf], sq[codes[i]], ok[codes[i]], [col[i] for col in f])
        for i in compress(range(len(codes)), visits)
    )


def _verdicts(code, require_smooth):
    """(squarefree, rows pass, visit) for a lane's code: the loop visits a
    lane the gate left open, and one no decided stage put out."""
    sq = False if code & _GATE_OUT else None if code & _GATE_OPEN else True
    ok = None if code & _ROWS_OPEN else not code & _ROWS_OUT
    return sq, ok, sq is None or ok is not False and (sq or not require_smooth)
