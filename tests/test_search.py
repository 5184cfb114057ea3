import itertools
import json
import random

import pytest

from cartier import (
    BudgetExceededError,
    Poly,
    SearchSpec,
    find_p_rank_witnesses,
    forward_form_check,
    invariants,
    make_field,
    parse_poly,
    random_element,
    reproduce_script,
    revalidate_report_dict,
    run_search,
    verify_genus_p_minus_1,
    verify_p_rank_witnesses,
    verify_theorem1,
)
from cartier.search import monic_odd_family


class TestRunSearchSmallFamilies:
    def test_genus2_p3_counts_match_object_oracle(self, F3):
        # object-layer brute force over all 81 candidates
        by_a = {0: 0, 1: 0, 2: 0}
        n_sq = 0
        for cs in itertools.product(range(3), repeat=4):
            inv = invariants(Poly.from_ints(F3, [0, *cs, 1]))
            if inv.smooth:
                n_sq += 1
                by_a[inv.a_number] += 1
        assert (n_sq, by_a) == (40, {0: 34, 1: 6, 2: 0})  # frozen from the run
        for target, expected in by_a.items():
            rep = run_search(
                monic_odd_family(F3, 2, target_a=target, require_smooth=True)
            )
            assert rep.counts.enumerated == 81
            assert rep.counts.squarefree == 40
            assert rep.matched == expected

    def test_partition_by_a_number(self, F5):
        # sum over a-targets of matched == squarefree count
        total = 0
        squarefree = None
        for target in range(3):
            rep = run_search(
                monic_odd_family(F5, 2, target_a=target, require_smooth=True)
            )
            total += rep.matched
            squarefree = rep.counts.squarefree
        assert total == squarefree == 416

    def test_existence_counts_frozen(self, F5, F7):
        rep5 = run_search(monic_odd_family(F5, 2, target_a=1, require_smooth=True))
        rep7 = run_search(monic_odd_family(F7, 2, target_a=1, require_smooth=True))
        assert rep5.matched == 84
        assert rep7.matched == 252

    def test_no_targets_counts_pass_through(self, F3):
        rep = run_search(monic_odd_family(F3, 2, require_smooth=True))
        assert rep.matched == rep.counts.squarefree == 40
        rep_all = run_search(monic_odd_family(F3, 2, require_smooth=False))
        assert rep_all.matched == rep_all.counts.enumerated == 81

    def test_a_matched_equals_rank_matched(self, F5):
        rep = run_search(monic_odd_family(F5, 2, target_a=1, require_smooth=True))
        assert rep.counts.a_matched == rep.counts.rank_matched

    def test_p_rank_filter(self, F5):
        both = run_search(monic_odd_family(F5, 3, target_a=2, require_smooth=True))
        r0 = run_search(
            monic_odd_family(F5, 3, target_a=2, target_p_rank=0, require_smooth=True)
        )
        r1 = run_search(
            monic_odd_family(F5, 3, target_a=2, target_p_rank=1, require_smooth=True)
        )
        assert both.matched == 36
        assert (r0.matched, r1.matched) == (16, 20)
        assert r0.matched + r1.matched == both.matched


class TestPrefilter:
    @pytest.mark.parametrize(
        "p,k,genus,target",
        [(5, 1, 3, 2), (7, 1, 2, 1), (3, 2, 2, 1), (5, 1, 3, 1)],
    )
    def test_on_off_counts_identical(self, p, k, genus, target):
        F = make_field(p, k)
        on = run_search(
            monic_odd_family(F, genus, target_a=target, require_smooth=True)
        )
        off = run_search(
            monic_odd_family(
                F, genus, target_a=target, require_smooth=True, prefilter=False
            )
        )
        assert on.counts == off.counts
        assert [w.fragment() for w in on.witnesses] == [
            w.fragment() for w in off.witnesses
        ]


class TestDeterminism:
    def test_threads_do_not_change_report(self, F5):
        few = monic_odd_family(F5, 3, target_a=2, require_smooth=True)
        # 336 witnesses under a limit above the match count: every match is
        # re-validated, in several chunks per pool worker
        many = monic_odd_family(
            F5, 3, target_a=1, target_p_rank=1, require_smooth=True,
            collect_limit=1000,
        )
        for spec in (few, many):
            docs = {
                t: json.dumps(run_search(spec, threads=t).to_dict())
                for t in (1, 2, 4)
            }
            assert docs[1] == docs[2] == docs[4]
        doc = json.loads(docs[1])
        assert len(doc["witnesses"]) == doc["matched"] == 336

    def test_consecutive_runs_identical(self, F5):
        spec = monic_odd_family(F5, 2, target_a=1, require_smooth=True)
        a = json.dumps(run_search(spec).to_dict())
        b = json.dumps(run_search(spec).to_dict())
        assert a == b

    def test_random_mode_thread_and_rerun_identical(self):
        a = reproduce_script(2, samples=3000, seed=7, threads=1)
        b = reproduce_script(2, samples=3000, seed=7, threads=3)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_shard_count_is_structural(self, F5):
        spec = monic_odd_family(F5, 2, target_a=1, require_smooth=True)
        assert run_search(spec, threads=1).shard_count == 5
        assert run_search(spec, threads=4).shard_count == 5

    def test_witness_truncation_is_global_first_k(self, F3):
        # the merged prefix across shards equals the single-thread prefix
        full = run_search(
            monic_odd_family(F3, 2, target_a=0, require_smooth=True, collect_limit=34)
        )
        prefix = run_search(
            monic_odd_family(F3, 2, target_a=0, require_smooth=True, collect_limit=5),
            threads=2,
        )
        assert [w.fragment() for w in prefix.witnesses] == [
            w.fragment() for w in full.witnesses[:5]
        ]


class TestRandomMode:
    def test_sample_order_matches_element_stream(self, F49):
        # sample s takes draws s*m .. s*m+m-1, ascending free index; this must
        # equal repeated random_element calls on one generator
        rng = random.Random(11)
        factor = parse_poly(F49, "0,6,1")  # x(x-1)
        expected = []
        for _ in range(4):
            hs = [random_element(F49, rng) for _ in range(7)]
            expected.append(factor * Poly(F49, hs + [F49.one]))
        spec = SearchSpec(
            field=F49,
            degree=9,
            fixed={7: F49.one},
            free=tuple(range(7)),
            mode="random",
            samples=4,
            seed=11,
            require_smooth=False,
            collect_limit=10,
            factor=factor,
        )
        rep = run_search(spec)
        assert [w.f for w in rep.witnesses] == expected

    def test_zero_samples_empty_report(self):
        rep = reproduce_script(2, samples=0, seed=1)
        assert rep.counts.enumerated == 0
        assert rep.matched == 0
        assert rep.shard_count == 0
        assert rep.witnesses == ()

    def test_samples_counted_not_deduplicated(self):
        rep = reproduce_script(2, samples=500, seed=3)
        assert rep.counts.enumerated == 500
        assert rep.counts.squarefree <= 500


class TestValidationAndBudget:
    def test_budget_exceeded(self, F7):
        spec = monic_odd_family(F7, 4, target_a=3, require_smooth=True)
        with pytest.raises(BudgetExceededError):
            run_search(spec, budget=1000)

    def test_free_fixed_must_cover(self, F5):
        with pytest.raises(ValueError, match="cover"):
            run_search(
                SearchSpec(
                    field=F5,
                    degree=5,
                    fixed={0: F5.zero, 5: F5.one},
                    free=(1, 2, 3),  # missing 4
                )
            )

    def test_leading_must_be_fixed_nonzero(self, F5):
        with pytest.raises(ValueError, match="leading"):
            run_search(
                SearchSpec(
                    field=F5, degree=5, fixed={0: F5.zero}, free=(1, 2, 3, 4, 5)
                )
            )
        with pytest.raises(ValueError, match="leading"):
            run_search(
                SearchSpec(
                    field=F5,
                    degree=5,
                    fixed={0: F5.zero, 5: F5.zero},
                    free=(1, 2, 3, 4),
                )
            )

    def test_even_degree_rejected(self, F5):
        with pytest.raises(ValueError, match="odd"):
            run_search(
                SearchSpec(field=F5, degree=4, fixed={4: F5.one}, free=(0, 1, 2, 3))
            )

    def test_random_needs_seed_and_samples(self, F5):
        with pytest.raises(ValueError, match="seed"):
            run_search(
                SearchSpec(
                    field=F5,
                    degree=5,
                    fixed={0: F5.zero, 5: F5.one},
                    free=(1, 2, 3, 4),
                    mode="random",
                    samples=10,
                )
            )

    def test_target_out_of_range(self, F5):
        with pytest.raises(ValueError, match="target"):
            run_search(
                SearchSpec(
                    field=F5,
                    degree=5,
                    fixed={0: F5.zero, 5: F5.one},
                    free=(1, 2, 3, 4),
                    target_a=3,
                )
            )


class TestWitnessRevalidation:
    def test_report_roundtrip_revalidates(self, F5):
        rep = run_search(monic_odd_family(F5, 2, target_a=1, require_smooth=True))
        doc = rep.to_dict()
        assert revalidate_report_dict(doc) == []

    def test_tampered_report_detected(self, F5):
        rep = run_search(monic_odd_family(F5, 2, target_a=1, require_smooth=True))
        doc = rep.to_dict()
        doc["witnesses"][0]["a_number"] = 2
        problems = revalidate_report_dict(doc)
        assert problems and "a_number" in problems[0]


class TestVerifySuites:
    def test_theorem1_p3_g3(self):
        rep = verify_theorem1(3, 1, 3)
        assert rep.passed and rep.observed["matched"] == 0
        assert rep.observed["enumerated"] == 729

    def test_theorem1_p3_g4(self):
        rep = verify_theorem1(3, 1, 4)
        assert rep.passed and rep.observed["enumerated"] == 6561

    def test_theorem1_rejects_small_genus(self):
        with pytest.raises(ValueError):
            verify_theorem1(5, 1, 3)

    def test_p_rank_witnesses_p5(self):
        split = find_p_rank_witnesses(5)
        assert split.count_p_rank_0 == 16
        assert split.count_p_rank_1 == 20
        for w in split.rank0.witnesses:
            assert w.invariants.p_rank == 0 and w.invariants.a_number == 2
        for w in split.rank1.witnesses:
            assert w.invariants.p_rank == 1
            assert w.invariants.a_number <= w.invariants.genus - w.invariants.p_rank

    def test_p_rank_witnesses_verdict(self):
        # no a = g-1 curve exists at genus >= p, so p = 3 fails
        assert not verify_p_rank_witnesses(3).passed
        rep = verify_p_rank_witnesses(7)
        assert rep.passed and "ordering" in rep.expected
        assert rep.observed["count_p_rank_1"] > rep.observed["count_p_rank_0"]


class TestForwardFormCheck:
    def test_degenerate_p7(self, F7):
        res = forward_form_check(7, F7.zero, F7.zero)
        assert res.f == Poly.monomial(F7, 13)
        assert res.invariants.genus == 6
        assert not res.invariants.smooth

    def test_distinct_nonzero_params_never_squarefree(self):
        rng = random.Random(17)
        for p in (5, 7, 11):
            F = make_field(p)
            for _ in range(10):
                ch = random_element(F, rng)
                cl = random_element(F, rng)
                if ch.is_zero or cl.is_zero or ch == cl:
                    continue
                res = forward_form_check(p, ch, cl)
                assert res.invariants.genus == p - 1
                assert not res.invariants.smooth

    def test_rank_recorded_not_asserted(self, F5):
        rng = random.Random(23)
        res = forward_form_check(
            5, random_element(F5, rng), random_element(F5, rng)
        )
        assert 0 <= res.invariants.rank_a <= 4

    def test_rejects_other_characteristic(self, F3):
        with pytest.raises(ValueError):
            forward_form_check(5, F3.one, F3.one)


class TestGenusPMinus1:
    def test_smoke_family_shape(self):
        # the full 390,625-candidate verification runs in the acceptance
        # suite; here only the reconstruction rule on known instances
        from cartier.search import _genus_p_minus_1_form

        F5 = make_field(5)
        f = _genus_p_minus_1_form(F5, F5.zero, F5.zero)
        assert f == Poly.monomial(F5, 9)
        assert invariants(f).rank_a == 1
        g = _genus_p_minus_1_form(F5, F5.element(1), F5.element(2))
        # x(x+2)^3(x+r)^5 with r^5 = 2 -> r = 2 in F_5
        x = Poly.monomial(F5, 1)
        lin1 = parse_poly(F5, "2,1")
        lin2 = parse_poly(F5, "2,1")
        assert g == x * lin1**3 * lin2**5
        assert g.coefficient(8) == F5.element(1)
        assert g.coefficient(4) == F5.element(2)

    def test_rejects_p7(self):
        with pytest.raises(ValueError):
            verify_genus_p_minus_1(7)


class TestReproduceSmoke:
    def test_script1_family_smoke_via_theorem_analogue(self):
        # the real script-1 run is acceptance criterion 1; its family shape
        # at p=3 (genus 4 >= p) must agree with the consistency suite
        rep = verify_theorem1(3, 1, 4)
        assert rep.passed

    def test_script2_tiny(self):
        rep = reproduce_script(2, samples=10, seed=1)
        assert rep.counts.enumerated == 10
        assert rep.spec.field.order == 49
        assert rep.spec.factor is not None
        assert rep.seed == 1

    def test_bad_script_number(self):
        with pytest.raises(ValueError):
            reproduce_script(3)
