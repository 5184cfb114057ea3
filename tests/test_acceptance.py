"""Acceptance criteria, one test per criterion, exact tolerances.

Heavy searches run once per thread count through module-scoped fixtures and
are shared between the result criteria and the determinism criterion.  Each
test prints one PASS line (run with ``pytest -s`` to see them as they land).
The whole module takes under a minute, mostly the 10^6-sample script-2 runs;
the 7^10 exhaustive run of criterion 8 takes about 4 s on two cores.
"""

import itertools
import json
import random

import pytest

from cartier import (
    Poly,
    cartier_matrix,
    half_power,
    invariants,
    make_curve,
    make_field,
    monic_odd_family,
    reproduce_script,
    run_search,
    verify_genus_p_minus_1,
    verify_p_rank_witnesses,
    verify_theorem1,
)

pytestmark = pytest.mark.acceptance


def _ok(line):
    print(f"ACCEPTANCE {line}")


def canonical(report_or_consistency):
    return json.dumps(report_or_consistency.to_dict(), sort_keys=False)


# -- shared heavy runs ------------------------------------------------------


@pytest.fixture(scope="module")
def script1_runs():
    return {
        "t4": reproduce_script(1, threads=4),
        "t1": reproduce_script(1, threads=1),
        "t4_again": reproduce_script(1, threads=4),
    }


@pytest.fixture(scope="module")
def script2_runs():
    return {
        "t4": reproduce_script(2, threads=4),
        "t1": reproduce_script(2, threads=1),
        "t4_again": reproduce_script(2, threads=4),
    }


@pytest.fixture(scope="module")
def theorem1_runs():
    cases = [(3, 1, 3), (3, 2, 3), (3, 1, 4)]
    return {
        (p, k, g): {
            "t4": verify_theorem1(p, k, g, threads=4),
            "t1": verify_theorem1(p, k, g, threads=1),
        }
        for p, k, g in cases
    }


@pytest.fixture(scope="module")
def prop_p5_runs():
    return {
        "t4": verify_genus_p_minus_1(threads=4),
        "t1": verify_genus_p_minus_1(threads=1),
    }


@pytest.fixture(scope="module")
def existence_runs():
    out = {}
    for p in (3, 5, 7):
        spec = monic_odd_family(
            make_field(p), 2, target_a=1, require_smooth=True
        )
        out[p] = {
            "t4": run_search(spec, threads=4),
            "t1": run_search(spec, threads=1),
        }
    return out


@pytest.fixture(scope="module")
def p_rank_split_runs():
    return {
        p: {
            "t4": verify_p_rank_witnesses(p, threads=4),
            "t1": verify_p_rank_witnesses(p, threads=1),
        }
        for p in (5, 7)
    }


# -- criteria ---------------------------------------------------------------


def test_criterion_1_script1_reproduction(script1_runs):
    rep = script1_runs["t4"]
    assert rep.counts.enumerated == 7**8 == 5764801
    assert rep.matched == 0
    assert rep.elapsed_ms < 10 * 60 * 1000
    _ok(
        "C1 PASS - exhaustive p=7 genus-4 search: 0 smooth curves with a=3 "
        f"over {rep.counts.enumerated} candidates ({rep.elapsed_ms} ms on 4 threads)"
    )


def test_criterion_2_script2_reproduction(script2_runs):
    rep = script2_runs["t4"]
    assert rep.counts.enumerated == 10**6
    assert rep.seed == 1  # the shipped default seed
    assert rep.elapsed_ms < 5 * 60 * 1000
    if rep.matched != 0:
        # a genuine hit would be a notable finding, not a test failure; the
        # witnesses were already re-validated by run_search
        _ok(
            "C2 NOTABLE FINDING - random genus-4 search over F_49 matched "
            f"{rep.matched} curves with a=3: {[w.fragment() for w in rep.witnesses]}"
        )
    else:
        _ok(
            "C2 PASS - 10^6 seeded random genus-4 curves over F_49 "
            f"(branch points 0,1,inf): 0 with a=3 ({rep.elapsed_ms} ms)"
        )


def test_criterion_3_theorem1_consistency(theorem1_runs):
    expected_sizes = {(3, 1, 3): 729, (3, 2, 3): 531441, (3, 1, 4): 6561}
    for key, runs in theorem1_runs.items():
        rep = runs["t4"]
        assert rep.passed, key
        assert rep.observed["matched"] == 0
        assert rep.observed["enumerated"] == expected_sizes[key]
    _ok(
        "C3 PASS - no smooth curves with a=g-1 at p=3: g=3/F_3 (729), "
        "g=3/F_9 (531441), g=4/F_3 (6561)"
    )


def test_criterion_4_proposition_p5(prop_p5_runs):
    rep = prop_p5_runs["t4"]
    assert rep.passed
    obs = rep.observed
    assert obs["enumerated"] == 390625
    assert obs["smooth_rank1"] == 0
    assert obs["form_mismatches"] == 0
    # frozen split: 77 rank-one instances, 16 inside the claim's c1 != 0
    # hypothesis (all factored exactly), 61 outside it (all non-squarefree)
    assert obs["rank1_total"] == 77
    assert obs["rank1_c1_nonzero"] == 16
    assert obs["rank1_c1_zero"] == 61
    _ok(
        "C4 PASS - p=5 g=4: 0 smooth rank-1 curves over 390625 candidates; "
        "100% of rank-1 instances with c1!=0 equal x(x+2c8)^3(x+r)^5, r^5=c4 "
        f"({obs['rank1_c1_nonzero']} of {obs['rank1_total']} rank-1 instances "
        "in the claim's domain; the rest are singular at x=0)"
    )


def test_criterion_5_existence_witnesses(existence_runs, p_rank_split_runs):
    for p in (3, 5, 7):
        rep = existence_runs[p]["t4"]
        assert rep.matched >= 1, f"no genus-2 a=1 witness at p={p}"
        w = rep.witnesses[0].invariants
        assert w.a_number == 1 and w.smooth
    split = {p: p_rank_split_runs[p]["t4"].observed for p in (5, 7)}
    for p in (5, 7):
        assert split[p]["count_p_rank_0"] >= 1, f"no p-rank 0 witness at p={p}"
        assert split[p]["count_p_rank_1"] >= 1, f"no p-rank 1 witness at p={p}"
    assert split[7]["count_p_rank_1"] > split[7]["count_p_rank_0"]
    _ok(
        "C5 PASS - genus-2 a=1 witnesses at p=3,5,7 "
        f"({[existence_runs[p]['t4'].matched for p in (3, 5, 7)]}); "
        "genus-3 a=2 at both p-ranks for p=5 "
        f"({split[5]['count_p_rank_0']}/{split[5]['count_p_rank_1']}) and p=7 "
        f"({split[7]['count_p_rank_0']}/{split[7]['count_p_rank_1']}, "
        "rank-1 class larger)"
    )


def test_criterion_6_property_suite():
    # (a) entry identities on 1000 random normalized f per (p, g)
    for p, genus in ((5, 3), (7, 4), (7, 5)):
        F = make_field(p)
        rng = random.Random(600 + p * genus)
        for _ in range(1000):
            f = Poly.from_ints(
                F, [0, *(rng.randrange(p) for _ in range(2 * genus)), 1]
            )
            m = cartier_matrix(make_curve(f))
            assert m.entry(1, (p + 1) // 2) == f.coefficient(1) ** ((p - 1) // 2)
            assert m.entry(genus, genus - (p - 1) // 2) == F.one
            # (b) row-1 / row-g zero patterns
            for j in range((p + 3) // 2, genus + 1):
                assert m.entry(1, j).is_zero
            for j in range(1, genus - (p + 1) // 2 + 1):
                assert m.entry(genus, j).is_zero

    # (c) a <= g - p_rank on sampled smooth curves
    rng = random.Random(607)
    checked = 0
    F7 = make_field(7)
    while checked < 300:
        f = Poly.from_ints(F7, [0, *(rng.randrange(7) for _ in range(6)), 1])
        inv = invariants(f)
        if inv.smooth:
            assert inv.a_number <= inv.genus - inv.p_rank
            checked += 1

    # (d) half_power equals the repeated-product oracle on random inputs
    for p in (3, 5, 7):
        F = make_field(p)
        rng = random.Random(610 + p)
        for _ in range(50):
            deg = rng.randrange(1, 12)
            f = Poly.from_ints(
                F, [*(rng.randrange(p) for _ in range(deg)), rng.randrange(1, p)]
            )
            oracle = Poly.one(F)
            for _ in range((p - 1) // 2):
                oracle = oracle * f
            assert half_power(f) == oracle

    # (e) exhaustive p=5 g=3: no smooth superspecial (a = 3 = g) curve
    rep = run_search(
        monic_odd_family(make_field(5), 3, target_a=3, require_smooth=True)
    )
    assert rep.counts.enumerated == 15625 and rep.matched == 0

    # (f) matrix equals the naive-expansion oracle on all monic degree-5
    # f with c0=0 over F_3
    F3 = make_field(3)
    for cs in itertools.product(range(3), repeat=4):
        f = Poly.from_ints(F3, [0, *cs, 1])
        expansion = Poly.one(F3)
        for _ in range((3 - 1) // 2):
            expansion = expansion * f
        m = cartier_matrix(make_curve(f))
        for i in (1, 2):
            for j in (1, 2):
                assert m.entry(i, j) == expansion.coefficient(3 * i - j)

    _ok(
        "C6 PASS - entry identities (3000 curves), zero patterns, a <= g - f "
        "bound, half-power oracle, superspecial-absence at p=5 g=3, "
        "naive-expansion matrix oracle (81 curves)"
    )


def test_criterion_7_determinism(
    script1_runs,
    script2_runs,
    theorem1_runs,
    prop_p5_runs,
    existence_runs,
    p_rank_split_runs,
):
    def check(runs, label):
        docs = {name: canonical(rep) for name, rep in runs.items()}
        baseline = next(iter(docs.values()))
        for name, doc in docs.items():
            assert doc == baseline, f"{label}: report differs for {name}"

    check(script1_runs, "criterion 1")
    check(script2_runs, "criterion 2")
    for key, runs in theorem1_runs.items():
        check(runs, f"criterion 3 {key}")
    check(prop_p5_runs, "criterion 4")
    for p, runs in existence_runs.items():
        check(runs, f"criterion 5 existence p={p}")
    for p, runs in p_rank_split_runs.items():
        check(runs, f"criterion 5 p-rank split p={p}")
    _ok(
        "C7 PASS - criteria 1-5 reports byte-identical across threads {1,4} "
        "and across consecutive runs"
    )


@pytest.mark.slow
def test_criterion_8_optional_genus5_exhaustive():
    # 3.6 s on two Intel Xeon cores: the end-row join skips x^2 | f, so 86 436
    # survivors reach the pool, and the sieve counts the squarefree members
    rep = run_search(
        monic_odd_family(make_field(7), 5, target_a=4, require_smooth=True),
        threads=4,
    )
    assert rep.counts.enumerated == 7**10
    assert rep.matched == 0
    _ok(
        "C8 PASS - exhaustive p=7 genus-5 search: 0 smooth curves with a=4 "
        f"over {rep.counts.enumerated} candidates"
    )
