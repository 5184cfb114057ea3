"""Integer-encoded arithmetic kernel for the search engine.

Private module.  Field elements are encoded as their position in the
canonical base-p enumeration (``FieldElement.encoding``, 0..q-1);
polynomials are plain lists of encodings.  Every field uses dense q x q
operation tables, built once per field and process from the object layer
(sums of coordinates; products, inverses and Frobenius through discrete
logs of a generator of F_q^*), so fields are capped at
``TableKernel.MAX_ORDER`` elements.

The object layer in fields/poly/invariants is the reference implementation.
Everything here is cross-checked against it by the test suite, and every
witness a search emits is re-validated through the object layer before it
enters a report.
"""

from __future__ import annotations

import itertools

from .fields import FieldElement, FieldSpec

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
        self.add = [
            [index[tuple((a + b) % p for a, b in zip(ca, cb))] for cb in coords]
            for ca in coords
        ]
        self.neg = [(-el).encoding for el in els]

        exp = _unit_powers(spec, els)
        logs = sorted(range(q - 1), key=exp.__getitem__)  # logs[x - 1] = log x
        exp2 = exp * 2  # g^i for i < 2(q-1): sums of two logs need no mod
        self.mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        self.inv = [0] + [exp[-la] for la in logs]
        self.frob_table = [0] + [exp[la * p % (q - 1)] for la in logs]

    # -- polynomial primitives --

    def poly_mul(self, a, b):
        return self.poly_mul_trunc(a, b, len(a) + len(b) - 1)

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

    def poly_pow(self, a, e):
        return self.poly_pow_trunc(a, e, (len(a) - 1) * e + 1)

    def poly_pow_trunc(self, a, e, n):
        result = a[:n]
        for bit in bin(e)[3:]:
            result = self.poly_mul_trunc(result, result, n)
            if bit == "1":
                result = self.poly_mul_trunc(result, a, n)
        return result

    def is_squarefree(self, f):
        """gcd(f, f') constant and f' nonzero; f must have exact degree
        len(f)-1 >= 1 (nonzero leading encoding)."""
        p = self.char
        add = self.add
        mul = self.mul
        neg = self.neg
        inv = self.inv
        d = [mul[i % p][f[i]] for i in range(1, len(f))]
        while d and d[-1] == 0:
            d.pop()
        if not d:
            return False
        a, b = list(f), d
        while True:
            db = len(b) - 1
            if db == 0:
                return True
            r = a
            binv = inv[b[db]]
            for i in range(len(r) - 1 - db, -1, -1):
                c = r[db + i]
                if c:
                    qc = mul[c][binv]
                    qrow = mul[qc]
                    for j in range(db):
                        bj = b[j]
                        if bj:
                            r[i + j] = add[r[i + j]][neg[qrow[bj]]]
                    r[db + i] = 0
            while r and r[-1] == 0:
                r.pop()
            if not r:
                return False
            a, b = b, r

    # -- matrices --

    def rank(self, rows):
        """Rank by Gaussian elimination; mutates rows."""
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
                    factor = mul[c][pinv]
                    frow = mul[factor]
                    row = rows[i]
                    for j in range(col, n):
                        pj = prow[j]
                        if pj:
                            row[j] = add[row[j]][neg[frow[pj]]]
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
            prod = self._matmul(prod, twisted)
        return self.rank([list(r) for r in prod])


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
    """Rows of [kappa_{p*i - j}] (1-indexed i, j); out-of-range reads are 0."""
    n = len(kappa)
    return [
        [kappa[p * i - j] if 0 <= p * i - j < n else 0 for j in range(1, g + 1)]
        for i in range(1, g + 1)
    ]


def end_rows(kern, f, g):
    """Rows 1 and g of the matrix from truncated powers of f and of its
    reversal; used by the rank-1 prefilter without a full expansion."""
    p = kern.char
    e = (p - 1) // 2
    low_in = f[:p]
    while low_in and low_in[-1] == 0:
        low_in.pop()
    low = kern.poly_pow_trunc(low_in, e, p) if low_in else []
    half = (p + 1) // 2
    rev = f[::-1]
    high_in = rev[:half]
    high = kern.poly_pow_trunc(high_in, e, half)
    nl, nh = len(low), len(high)
    row1 = [low[p - j] if 0 <= p - j < nl else 0 for j in range(1, g + 1)]
    rowg = []
    shift = g - e
    for j in range(1, g + 1):
        t = j - shift
        rowg.append(high[t] if 0 <= t < nh else 0)
    return row1, rowg


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


def scan(task: dict) -> dict:
    """Run one shard of a search; pure function of the task description.

    Returns enumerated/squarefree/rank/p-rank counts and up to
    ``collect_limit`` matching coefficient vectors (encodings, ascending).
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
    use_prefilter = (
        task["prefilter"] and target_rank == 1 and e >= 2
    )

    cof_len = degree + 1 - (len(factor) - 1 if factor else 0)
    u = [0] * cof_len
    for idx, enc in task["fixed"]:
        u[idx] = enc

    poly_mul = kern.poly_mul
    is_squarefree = kern.is_squarefree
    poly_pow = kern.poly_pow
    rank = kern.rank
    p_rank = kern.p_rank

    if task["mode"] == "exhaustive":
        # the shard fixes the top free coefficient; product varies its last
        # slot fastest, so the lowest free index moves fastest
        if free:
            u[free[-1]] = task["top"]
        slots = free[-2::-1]
        total = q ** len(slots)
        candidates = itertools.product(range(q), repeat=len(slots))
    else:
        # sample-major draws, ascending free index within a sample
        slots = free
        total = task["count"]
        candidates = zip(*[iter(task["draws"])] * len(slots))
    filtered = target_rank is not None or target_p_rank is not None

    n_sq = 0
    n_rank = 0
    n_pr = 0
    wits: list[list[int]] = []

    for vals in candidates:
        for i, v in zip(slots, vals):
            u[i] = v

        f = poly_mul(factor, u) if factor else u

        sq = is_squarefree(f)
        if sq:
            n_sq += 1
        if require_smooth and not sq:
            continue

        if filtered:
            if use_prefilter:
                r1, rg = end_rows(kern, f, g)
                if not rows_could_be_rank_le_1(kern, r1, rg):
                    continue
            kappa = poly_pow(f, e) if e > 1 else list(f)
            rows = matrix_rows(kappa, g, p)
            if target_rank is not None:
                if rank([row[:] for row in rows]) != target_rank:
                    continue
        n_rank += 1
        if target_p_rank is not None:
            if p_rank(rows, g) != target_p_rank:
                continue
        n_pr += 1
        if len(wits) < limit:
            wits.append(list(f))

    return {
        "enumerated": total,
        "squarefree": n_sq,
        "rank_matched": n_rank,
        "p_rank_matched": n_pr,
        "witnesses": wits,
    }
