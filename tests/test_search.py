import itertools
import json
import pickle
import random
import sys

import pytest

from cartier import (
    BudgetExceededError,
    Poly,
    SearchSpec,
    cartier_matrix,
    enumerate_field,
    forward_form_check,
    invariants,
    make_curve,
    make_field,
    monic_odd_family,
    parse_poly,
    random_element,
    reproduce_script,
    revalidate_report_dict,
    run_search,
    verify_p_rank_witnesses,
    verify_theorem1,
)
from cartier.search import Witness, _plan


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

    @staticmethod
    def _rank_one_report(p, genus, fixed, free, factor, require_smooth, limit):
        # the end-row join and the sieve against the per-candidate path: the
        # whole report, at one and two threads; only the echoed flag differs
        F = make_field(p)
        spec = SearchSpec(
            field=F,
            degree=2 * genus + 1,
            fixed={i: F.element(v) for i, v in fixed.items()},
            target_a=genus - 1,
            require_smooth=require_smooth,
            collect_limit=limit,
            factor=parse_poly(F, factor) if factor else None,
        )
        assert spec.free == free
        off = spec._replace(prefilter=False)
        assert (_plan(spec), _plan(off)) == ((True, "join"), (False, None))
        expected = run_search(off, threads=2).to_dict()
        expected["spec"]["prefilter"] = True
        for threads in (1, 2):
            doc = run_search(spec, threads=threads).to_dict()
            assert json.dumps(doc) == json.dumps(expected)
        return expected

    @pytest.mark.parametrize(
        "p, genus, fixed, free, factor, require_smooth, limit",
        [
            # c1 = c2 = 0 reachable: x^3 | f and row 1 is zero
            (7, 3, {0: 0, 3: 1, 4: 2, 7: 1}, (1, 2, 5, 6), None, True, 10),
            # c4 = c5 = c6 = 0 reachable: row g is zero
            (7, 3, {0: 0, 2: 3, 3: 1, 7: 1}, (1, 4, 5, 6), None, True, 10),
            # genus 2 over F_7: rows 1 and g both read c2 and c3
            (7, 2, {0: 0, 5: 1}, (1, 2, 3, 4), None, True, 10),
            # f = x(x-1)h with h0 and h5 fixed
            (7, 3, {0: 1, 5: 1}, (1, 2, 3, 4), "0,6,1", True, 10),
            # singular models count too
            (5, 3, {0: 0, 7: 1}, (1, 2, 3, 4, 5, 6), None, False, 10),
            # 252 matches truncated to the first 5
            (7, 2, {0: 0, 5: 1}, (1, 2, 3, 4), None, True, 5),
        ],
    )
    def test_rank_one_path_report_identical(
        self, p, genus, fixed, free, factor, require_smooth, limit
    ):
        args = (p, genus, fixed, free, factor, require_smooth, limit)
        assert self._rank_one_report(*args)["matched"] > 0

    @pytest.mark.parametrize(
        "p, genus, fixed, free",
        [
            # the smooth families on which the join skips x^2 | f: g = 6 over
            # F_5, where no assignment survives, and g = 5 over F_7 (35 do)
            (5, 6, {0: 0, 4: 1, 6: 0, 8: 3, 10: 1, 12: 2, 13: 1},
             (1, 2, 3, 5, 7, 9, 11)),
            (7, 5, {0: 0, 4: 1, 6: 2, 7: 0, 10: 3, 11: 1}, (1, 2, 3, 5, 8, 9)),
        ],
    )
    def test_rank_one_path_report_identical_when_smooth(self, p, genus, fixed, free):
        doc = self._rank_one_report(p, genus, fixed, free, None, True, 10)
        assert doc["matched"] == 0
        assert doc["counts"]["squarefree"] > 0

    @pytest.mark.parametrize(
        "p, degree, fixed, samples, seed, factor, require_smooth, matched",
        [
            # F_25, genus 3, singular models counted
            (5, 7, {0: 0, 7: 1}, 20000, 2, False, False, 2),
            # F_49, f = x(x-1)h with h3 fixed
            (7, 5, {3: 1}, 3000, 5, True, True, 49),
        ],
    )
    def test_random_end_row_test_over_extension_field(
        self, p, degree, fixed, samples, seed, factor, require_smooth, matched
    ):
        # random draws over F_{p^2}, p >= 5: the column pass takes pieces of
        # 512 draws or more, and the scalar end-row test the lanes it leaves
        # open and F_49's last piece of 500; the whole report is its
        # --no-prefilter twin's at one and two threads, but for the echoed
        # flag
        F = make_field(p, 2)
        spec = SearchSpec(
            field=F,
            degree=degree,
            fixed={i: F.element(v) for i, v in fixed.items()},
            samples=samples,
            seed=seed,
            target_a=(degree - 1) // 2 - 1,
            require_smooth=require_smooth,
            factor=Poly(F, (F.zero, -F.one, F.one)) if factor else None,
        )
        assert _plan(spec) == (False, "scan")
        off = spec._replace(prefilter=False)
        expected = run_search(off, threads=2).to_dict()
        expected["spec"]["prefilter"] = True
        assert expected["matched"] == matched
        for threads in (1, 2):
            doc = run_search(spec, threads=threads).to_dict()
            assert json.dumps(doc) == json.dumps(expected)

    @pytest.mark.parametrize(
        "p, k, samples, require_smooth",
        # F_121, F_125 and F_67 have no byte lanes (two logs add past 255
        # from p = 67 on)
        [(11, 2, 2000, True), (5, 3, 2000, False), (67, 1, 600, False)],
    )
    def test_random_end_row_test_without_byte_lanes(
        self, p, k, samples, require_smooth, monkeypatch
    ):
        # genus-2 rank-one random searches with c0 = 0 run the scalar
        # end-row test on every squarefree candidate and never load the
        # column pass (an import of it fails here, in this process and in
        # a forked worker alike); the whole report is its --no-prefilter
        # twin's at one and two threads, once the echoed flag is deleted
        import cartier._kernel as _kernel

        F = make_field(p, k)
        spec = SearchSpec(
            field=F,
            degree=5,
            fixed={0: F.zero, 5: F.one},
            samples=samples,
            seed=1,
            target_a=1,
            require_smooth=require_smooth,
        )
        assert _plan(spec) == (False, "scan")
        monkeypatch.setitem(sys.modules, "cartier._columns", None)
        calls = []
        real = _kernel.rows_could_be_rank_le_1
        monkeypatch.setattr(
            _kernel,
            "rows_could_be_rank_le_1",
            lambda *args: calls.append(1) or real(*args),
        )

        def report(spec, threads):
            doc = run_search(spec, threads=threads).to_dict()
            del doc["spec"]["prefilter"]
            return doc

        twin = report(spec._replace(prefilter=False), 1)
        assert twin["matched"] > 0
        assert report(spec, 1) == twin and calls
        assert report(spec, 2) == twin

    def test_genus_one_skips_the_join(self, F7):
        # the 1 x 1 matrix has rank <= 1 whatever f is, so the join could
        # reject nothing: a genus-1 search checks every candidate
        assert _plan(monic_odd_family(F7, 1, target_a=0))[1] is None
        assert _plan(monic_odd_family(F7, 2, target_a=1)) == (True, "join")

    @pytest.mark.parametrize(
        "genus, fixed, samples, where",
        [
            # the script1-f7 family (7^5): scan checks the join's 42
            # survivors, which the join already tested
            (4, {0: 0, 1: 1, 2: 1, 3: 1, 9: 1}, None, "join"),
            # genus 1: rows 1 and g are one row, so neither test runs
            (1, {0: 0, 3: 1}, None, None),
            # a random sample and script1-f7's 7-candidate set-up family
            # are tested candidate by candidate
            (2, {0: 0, 5: 1}, 300, "scan"),
            (4, {0: 0, 1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0, 9: 1}, None, "scan"),
        ],
    )
    def test_end_row_test_runs_where_the_search_says(
        self, F7, monkeypatch, genus, fixed, samples, where
    ):
        # scan runs rows_could_be_rank_le_1 only on the per-candidate path,
        # and the report is still its --no-prefilter twin's
        import cartier._kernel as _kernel

        calls = []
        real = _kernel.rows_could_be_rank_le_1

        def counted(kern, r1, rg):
            calls.append(len(r1))
            return real(kern, r1, rg)

        monkeypatch.setattr(_kernel, "rows_could_be_rank_le_1", counted)
        spec = SearchSpec(
            field=F7,
            degree=2 * genus + 1,
            fixed={i: F7.element(v) for i, v in fixed.items()},
            samples=samples,
            seed=None if samples is None else 4,
            target_a=genus - 1,
            require_smooth=True,
        )
        assert _plan(spec)[1] == where
        doc = run_search(spec, threads=1).to_dict()
        # once a squarefree candidate on the per-candidate path, else never
        assert len(calls) == (doc["counts"]["squarefree"] if where == "scan" else 0)
        assert doc["counts"]["squarefree"] > 0
        off = run_search(spec._replace(prefilter=False)).to_dict()
        off["spec"]["prefilter"] = True
        assert json.dumps(doc) == json.dumps(off)


class TestSieveCountedSearches:
    """Large exhaustive searches with a rank target, or without
    require_smooth, take the squarefree count from the sieve and test a
    candidate's squarefreeness only where a count needs it."""

    @staticmethod
    def _family(p, k, genus, fixed, **kwargs):
        F = make_field(p, k)
        factor = kwargs.pop("factor", None)
        return SearchSpec(
            field=F,
            degree=2 * genus + 1,
            fixed={i: F.element(v) for i, v in fixed.items()},
            factor=parse_poly(F, factor) if factor else None,
            **kwargs,
        )

    @pytest.mark.parametrize(
        "p, k, genus, fixed, kwargs, matched",
        [
            # a = g over F_7: the one superspecial member, y^2 = x^7 + x
            (7, 1, 3, {0: 0, 1: 1, 7: 1},
             dict(target_a=3, require_smooth=True), 1),
            # a = g - 2 over F_5, singular models counted: 188 matches
            # truncated to the first 5
            (5, 1, 4, {0: 0, 1: 1, 2: 1, 9: 1},
             dict(target_a=2, collect_limit=5), 188),
            # ordinary members over F_9 (p = 3: the half power is f itself)
            (3, 2, 2, {0: 0, 5: 1},
             dict(target_a=0, require_smooth=True, collect_limit=5), 4792),
            # f = x(x-1)h with h0 and h5 fixed, a = g - 2
            (7, 1, 3, {0: 1, 5: 1},
             dict(target_a=1, require_smooth=True, collect_limit=5,
                  factor="0,6,1"), 314),
        ],
    )
    def test_report_equals_the_per_candidate_one(
        self, p, k, genus, fixed, kwargs, matched
    ):
        # the whole report is its --no-prefilter twin's at one and two
        # threads, but for the echoed flag; none of these is rank one
        spec = self._family(p, k, genus, fixed, **kwargs)
        off = spec._replace(prefilter=False)
        assert (_plan(spec), _plan(off)) == ((True, None), (False, None))
        expected = run_search(off, threads=2).to_dict()
        assert expected["matched"] == matched
        expected["spec"]["prefilter"] = True
        for threads in (1, 2):
            doc = run_search(spec, threads=threads).to_dict()
            assert json.dumps(doc) == json.dumps(expected)

    @staticmethod
    def _tested(monkeypatch, spec, threads):
        """The report, and the cofactors the kernel's squarefree test ran on,
        from the scan's results on whichever process ran it."""
        import cartier._kernel as _kernel
        import cartier.search as search

        tested = []
        real_test = _kernel.squarefree_test
        real_scan = _kernel.scan
        real_merge = search._merge

        def squarefree_test(kern, factor):
            test = real_test(kern, factor)

            def recorded(u):
                tested.append(list(u))
                return test(u)

            return recorded

        def scan(task):
            tested.clear()
            return dict(real_scan(task), tested=list(tested))

        seen = []

        def merge(spec, results):
            return real_merge(spec, (seen.append(r) or r for r in results))

        monkeypatch.setattr(_kernel, "squarefree_test", squarefree_test)
        monkeypatch.setattr(_kernel, "scan", scan)
        monkeypatch.setattr(search, "_merge", merge)
        rep = run_search(spec, threads=threads)
        return rep, [u for r in seen for u in r["tested"]]

    @staticmethod
    def _rank(spec, u):
        from cartier._kernel import get_kernel, matrix_rows

        F = spec.field
        kern = get_kernel(F.p, F.k, F.modulus)
        e = (F.p - 1) // 2
        rows = matrix_rows(kern.poly_pow(u, e) if e > 1 else u, spec.genus, F.p)
        return kern.rank(rows)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_squarefree_test_runs_past_the_rank_test_only(
        self, monkeypatch, pool_starts, threads
    ):
        # a = g - 2 over F_5, smooth: the cofactors tested are exactly the
        # members of rank 2, singular ones included
        spec = self._family(
            5, 1, 4, {0: 0, 1: 1, 2: 1, 9: 1}, target_a=2, require_smooth=True
        )
        assert _plan(spec)[0]
        rep, tested = self._tested(monkeypatch, spec, threads)
        assert pool_starts == ([2] if threads == 2 else [])
        assert {self._rank(spec, u) for u in tested} == {2}
        assert len(tested) == 188 > rep.matched > 0
        # on the join's survivors too, those of rank one only
        spec = self._family(
            7, 1, 4, {0: 0, 1: 1, 2: 1, 3: 1, 9: 1}, target_a=3, require_smooth=True
        )
        assert _plan(spec) == (True, "join")
        rep, tested = self._tested(monkeypatch, spec, threads)
        assert {self._rank(spec, u) for u in tested} <= {1}
        assert rep.counts.squarefree == 14710

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_squarefree_test_without_require_smooth(
        self, monkeypatch, pool_starts, threads
    ):
        spec = self._family(
            5, 1, 4, {0: 0, 1: 1, 2: 1, 9: 1}, target_a=2, collect_limit=5
        )
        assert _plan(spec)[0]
        rep, tested = self._tested(monkeypatch, spec, threads)
        assert pool_starts == ([2] if threads == 2 else [])
        assert (rep.matched, tested) == (188, [])
        assert rep.counts.squarefree == 13018

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "genus, fixed, kwargs",
        [
            # a random sample
            (2, {0: 0, 5: 1}, dict(samples=300, seed=4, target_a=1)),
            # script1-f7's 7-candidate set-up family, below the bound
            (4, {0: 0, 1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0, 7: 0, 9: 1},
             dict(target_a=3)),
            # smooth with no rank target: the test stays the first gate
            (2, {0: 0, 1: 1, 5: 1}, dict(target_p_rank=1)),
            # --no-prefilter
            (3, {0: 0, 1: 1, 7: 1}, dict(target_a=3, prefilter=False)),
        ],
    )
    def test_other_searches_test_every_candidate(
        self, monkeypatch, threads, genus, fixed, kwargs
    ):
        spec = self._family(7, 1, genus, fixed, require_smooth=True, **kwargs)
        assert not _plan(spec)[0]
        rep, tested = self._tested(monkeypatch, spec, threads)
        assert len(tested) == rep.counts.enumerated


class TestPlans:
    """``search._plan`` chooses the sieve, the join and the per-candidate
    end-row test; every plan it may return gives the same report."""

    PLANS = [
        (True, "join"), (True, "scan"), (True, None), (False, "scan"), (False, None)
    ]

    @pytest.mark.parametrize(
        "p, k, genus, fixed, require_smooth",
        [
            # the normalized F_7 genus-3 family, singular models counted
            (7, 1, 3, {0: 0, 7: 1}, False),
            # F_25, degree 5, c1 = 1
            (5, 2, 2, {0: 0, 1: 1, 5: 1}, False),
            # smooth, with c1 = c2 = 0 reachable: x^3 | f and row 1 is zero
            (7, 1, 3, {0: 0, 3: 1, 4: 2, 7: 1}, True),
            # every free slot below the top one is read by both end rows
            (7, 1, 2, {0: 0, 1: 1, 5: 1}, False),
        ],
    )
    def test_every_plan_gives_one_report(
        self, monkeypatch, p, k, genus, fixed, require_smooth
    ):
        # rank-one exhaustive families whose own plan is the join: each of
        # the five plans, forced, gives the same whole report at one and
        # two threads, the sieve's squarefree count and the join's survivors
        # against counting and testing candidate by candidate
        import cartier.search as search

        F = make_field(p, k)
        spec = SearchSpec(
            field=F,
            degree=2 * genus + 1,
            fixed={i: F.element(v) for i, v in fixed.items()},
            target_a=genus - 1,
            require_smooth=require_smooth,
        )
        assert _plan(spec) == (True, "join")
        docs = {}
        for plan in self.PLANS:
            monkeypatch.setattr(search, "_plan", lambda spec, plan=plan: plan)
            for threads in (1, 2):
                doc = run_search(spec, threads=threads).to_dict()
                docs[plan, threads] = json.dumps(doc)
        assert len(set(docs.values())) == 1
        assert json.loads(docs[self.PLANS[0], 1])["matched"] > 0

    def test_join_only_with_the_sieve(self):
        # over a grid of specs, _plan never joins without the sieve, whose
        # count alone covers the members the join drops
        seen = set()
        fields = [make_field(p, k) for p, k in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]]
        for F, genus, n_fixed, smooth, prefilter, samples in itertools.product(
            fields, (1, 2, 3), (0, 1, 2, 4), (False, True), (False, True), (None, 100)
        ):
            degree = 2 * genus + 1
            fixed = {i: F.one for i in range(1, min(n_fixed, degree - 1) + 1)}
            for target_a in (None, *range(genus + 1)):
                spec = SearchSpec(
                    field=F,
                    degree=degree,
                    fixed=fixed | {0: F.zero, degree: F.one},
                    samples=samples,
                    seed=None if samples is None else 1,
                    target_a=target_a,
                    require_smooth=smooth,
                    prefilter=prefilter,
                )
                sieve, end_rows = plan = _plan(spec)
                assert end_rows in ("join", "scan", None)
                assert end_rows != "join" or sieve
                seen.add(plan)
        assert seen >= {(True, "join"), (True, None), (False, "scan"), (False, None)}


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

    def test_witness_truncation_is_global_first_k(
        self, F3, monkeypatch, pool_starts
    ):
        # the merged prefix across shards equals the single-thread prefix;
        # 81 candidates reach the pool only with a floor of one a worker
        import cartier.search as search

        monkeypatch.setattr(search, "_WORKER_CANDIDATES", 1)
        full = run_search(
            monic_odd_family(F3, 2, target_a=0, require_smooth=True, collect_limit=34)
        )
        prefix = run_search(
            monic_odd_family(F3, 2, target_a=0, require_smooth=True, collect_limit=5),
            threads=2,
        )
        assert pool_starts == [2]
        assert [w.fragment() for w in prefix.witnesses] == [
            w.fragment() for w in full.witnesses[:5]
        ]


class TestRandomMode:
    def test_sample_order_matches_element_stream(self, F49, monkeypatch):
        # sample s takes draws s*m .. s*m+m-1, ascending free index; this must
        # equal repeated random_element calls on one generator, across pieces,
        # and the report counts shards, not pieces
        import cartier.search as search

        monkeypatch.setattr(search, "_RANDOM_SHARD_SAMPLES", 3)
        monkeypatch.setattr(search, "_PIECE", 2)
        rng = random.Random(11)
        factor = parse_poly(F49, "0,6,1")  # x(x-1)
        expected = []
        for _ in range(10):
            hs = [random_element(F49, rng) for _ in range(7)]
            expected.append(factor * Poly(F49, hs + [F49.one]))
        spec = SearchSpec(
            field=F49,
            degree=9,
            fixed={7: F49.one},
            samples=10,
            seed=11,
            require_smooth=False,
            collect_limit=10,
            factor=factor,
        )
        assert spec.free == tuple(range(7))
        rep = run_search(spec)
        assert rep.shard_count == 4
        assert [w.f for w in rep.witnesses] == expected

    @pytest.mark.parametrize("p, k", [(7, 2), (17, 2)])
    def test_pieces_hold_the_pinned_stream(self, p, k, monkeypatch):
        # at every piece size the pieces cut one _rand_below stream,
        # sample-major, ascending free index, one byte a value or two past 256
        import cartier.search as search
        from cartier.fields import _rand_below

        F = make_field(p, k)
        spec = monic_odd_family(F, 2, samples=50, seed=5)
        rng = random.Random(5)
        expected = [_rand_below(rng, F.order) for _ in range(50 * len(spec.free))]
        for piece in (1, 3, 7, 2500):
            monkeypatch.setattr(search, "_PIECE", piece)
            tasks = search._make_tasks(spec, search.DEFAULT_BUDGET)
            assert {t["draws"].typecode for t in tasks} == {"B" if p**k <= 256 else "H"}
            assert [v for t in tasks for v in t["draws"]] == expected

    def test_piece_boundaries_do_not_change_report(
        self, F5, F7, monkeypatch, pool_starts
    ):
        # witnesses come from several pieces, and at piece sizes 3 and 7 the
        # collect limit of 9 cuts the list inside a piece; the rank-one
        # family's pieces hold survivors of the end-row join.  Both searches
        # are too small for a second worker, so a floor of one candidate a
        # worker sends every run of two or more pieces at two threads to
        # the pool
        import cartier._kernel as _kernel
        import cartier.search as search

        monkeypatch.setattr(search, "_WORKER_CANDIDATES", 1)
        random_spec = monic_odd_family(
            F5, 2, samples=40, seed=3, target_p_rank=2,
            collect_limit=9,
        )
        rank_one_spec = monic_odd_family(F7, 2, target_a=1, collect_limit=9)
        assert search._plan(rank_one_spec) == (True, "join")
        # sizes, then the assignments checked, enumerated, matched, shards
        cases = [
            (random_spec, (1, 3, 7, 40, 2500), (40, 40, 20, 1)),
            (rank_one_spec, (1, 3, 7, 2500), (354, 7**4, 252, 7)),
        ]
        for spec, sizes, (checked, enumerated, matched, shards) in cases:
            docs = set()
            for piece in sizes:
                monkeypatch.setattr(search, "_PIECE", piece)
                tasks = search._make_tasks(spec, search.DEFAULT_BUDGET)
                counts = [t["count"] for t in tasks]
                assert len(tasks) == -(-checked // piece)
                assert sum(counts) == checked
                assert counts[:-1] == [piece] * (len(tasks) - 1)
                if piece in (3, 7):
                    found = [len(_kernel.scan(t)["witnesses"]) for t in tasks]
                    before = itertools.accumulate([0, *found])
                    assert sum(1 for n in found if n) > 1
                    assert any(b < 9 < b + n for b, n in zip(before, found))
                for threads in (1, 2):
                    started = len(pool_starts)
                    rep = run_search(spec, threads=threads)
                    pooled = threads == 2 and len(tasks) > 1
                    assert pool_starts[started:] == ([2] if pooled else [])
                    assert rep.shard_count == shards
                    docs.add(json.dumps(rep.to_dict()))
            assert len(docs) == 1
            doc = json.loads(docs.pop())
            assert doc["counts"]["enumerated"] == enumerated
            assert (doc["matched"], len(doc["witnesses"])) == (matched, 9)

    def test_script2_pieces_are_not_report_shards(self, monkeypatch):
        # 2 x 10^4 samples: eight pieces for the pool, one shard in the report
        import cartier.search as search

        specs = []
        real = search.run_search

        def recorder(spec, **kwargs):
            specs.append(spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(search, "run_search", recorder)
        rep = reproduce_script(2, samples=20_000, seed=1, threads=2)
        assert len(search._make_tasks(specs[0], search.DEFAULT_BUDGET)) == 8
        assert rep.shard_count == 1
        counts = (rep.counts.enumerated, rep.counts.squarefree, rep.matched)
        assert counts == (20_000, 18_843, 0)

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


class TestCandidateOrder:
    """With no filter and a collect limit that holds every candidate, the
    witness list is the whole exhaustive enumeration, in the order the
    determinism contract fixes, built here in the object layer (the random
    order is TestRandomMode's)."""

    @pytest.mark.parametrize(
        "p, k, fixed, free",
        [
            (5, 1, {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 1}, ()),
            (5, 1, {0: 0, 1: 1, 2: 2, 3: 3, 5: 1}, (4,)),
            (5, 1, {1: 1, 3: 3, 5: 1}, (0, 2, 4)),
            (3, 2, {0: 0, 1: 1, 2: 2, 4: 4, 5: 1}, (3,)),
        ],
    )
    def test_exhaustive_order_is_odometer(self, p, k, fixed, free):
        F = make_field(p, k)
        fixed = {i: F.element(v) for i, v in fixed.items()}
        expected = []
        # top free coefficient outermost, lowest free index fastest
        for vals in itertools.product(list(enumerate_field(F)), repeat=len(free)):
            coeffs = dict(fixed)
            coeffs.update(zip(reversed(free), vals))
            expected.append(Poly(F, [coeffs[i] for i in range(6)]))
        spec = SearchSpec(field=F, degree=5, fixed=fixed, collect_limit=len(expected))
        assert spec.free == free
        rep = run_search(spec)
        assert rep.counts.enumerated == len(expected)
        assert [w.f for w in rep.witnesses] == expected


class TestValidationAndBudget:
    def test_budget_exceeded(self, F7):
        spec = monic_odd_family(F7, 4, target_a=3, require_smooth=True)
        with pytest.raises(BudgetExceededError):
            run_search(spec, budget=1000)

    @pytest.mark.parametrize("idx", [6, 9, -1])
    def test_fixed_index_must_lie_in_cofactor(self, F5, idx):
        # no other check notices: the index would simply never be read
        with pytest.raises(ValueError, match=f"c{idx} lies outside"):
            run_search(
                SearchSpec(
                    field=F5, degree=5, fixed={0: F5.zero, 5: F5.one, idx: F5.one}
                )
            )
        factor = parse_poly(F5, "0,1")  # x: the cofactor stops at c4
        with pytest.raises(ValueError, match="c5 lies outside"):
            run_search(
                SearchSpec(
                    field=F5, degree=5, fixed={4: F5.one, 5: F5.one}, factor=factor
                )
            )

    def test_leading_must_be_fixed_nonzero(self, F5):
        with pytest.raises(ValueError, match="leading"):
            run_search(
                SearchSpec(field=F5, degree=5, fixed={0: F5.zero})
            )
        with pytest.raises(ValueError, match="leading"):
            run_search(
                SearchSpec(
                    field=F5,
                    degree=5,
                    fixed={0: F5.zero, 5: F5.zero},
                )
            )

    def test_even_degree_rejected(self, F5):
        with pytest.raises(ValueError, match="odd"):
            run_search(
                SearchSpec(field=F5, degree=4, fixed={4: F5.one})
            )

    def test_random_needs_seed_and_samples(self, F5):
        with pytest.raises(ValueError, match="seed"):
            run_search(
                SearchSpec(
                    field=F5,
                    degree=5,
                    fixed={0: F5.zero, 5: F5.one},
                    samples=10,
                )
            )

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected(self, F5, seed):
        # random.seed(n) uses |n|, so -1 would silently draw seed 1's samples
        spec = SearchSpec(
            field=F5, degree=5, fixed={0: F5.zero, 5: F5.one}, samples=10, seed=seed
        )
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            run_search(spec)
        assert run_search(spec._replace(seed=0)).counts.enumerated == 10

    def test_seed_without_samples_rejected(self, F5):
        # a spec without samples is exhaustive, and an exhaustive search
        # draws nothing to seed
        spec = SearchSpec(
            field=F5, degree=5, fixed={0: F5.zero, 5: F5.one}, seed=3
        )
        assert spec.mode == "exhaustive"
        assert spec._replace(samples=0).mode == "random"
        with pytest.raises(ValueError, match="seed only applies to random mode"):
            run_search(spec)

    def test_target_out_of_range(self, F5):
        with pytest.raises(ValueError, match="target"):
            run_search(
                SearchSpec(
                    field=F5,
                    degree=5,
                    fixed={0: F5.zero, 5: F5.one},
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

    def test_witness_outside_the_filters_detected(self, F5):
        # an honest fragment whose invariants recompute exactly, but a = 0
        other = run_search(monic_odd_family(F5, 2, target_a=0, require_smooth=True))
        doc = run_search(
            monic_odd_family(F5, 2, target_a=1, require_smooth=True)
        ).to_dict()
        doc["witnesses"][0] = other.to_dict()["witnesses"][0]
        problems = revalidate_report_dict(doc)
        assert problems == ["witness 0: fails the spec's filters (a=0, wanted 1)"]

    def test_truncated_witness_list_detected(self, F5):
        doc = run_search(
            monic_odd_family(F5, 2, target_a=1, require_smooth=True)
        ).to_dict()
        assert doc["matched"] == 84 and len(doc["witnesses"]) == 10
        doc["witnesses"] = doc["witnesses"][:3]
        problems = revalidate_report_dict(doc)
        assert len(problems) == 1 and "holds 3 witnesses, expected 10" in problems[0]


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
        obs = verify_p_rank_witnesses(5).observed
        assert obs["count_p_rank_0"] == 16
        assert obs["count_p_rank_1"] == 20
        for p_rank in (0, 1):
            listed = obs[f"witnesses_p_rank_{p_rank}"]
            assert listed
            for w in listed:
                assert w["smooth"] and w["a_number"] == 2 and w["p_rank"] == p_rank

    def test_p_rank_witnesses_verdict(self):
        # no a = g-1 curve exists at genus >= p, so p = 3 fails
        assert not verify_p_rank_witnesses(3).passed
        rep = verify_p_rank_witnesses(7)
        assert rep.passed and "ordering" in rep.expected
        assert rep.observed["count_p_rank_1"] > rep.observed["count_p_rank_0"]

    def test_p_rank_witnesses_rejects_a_third_p_rank(self, monkeypatch):
        # a <= g - f leaves an a = g-1 curve p-rank 0 or 1; any other is a fault
        import cartier.search as search

        real = search.run_search

        def first_with_p_rank_2(spec, **kwargs):
            rep = real(spec, **kwargs)
            w = rep.witnesses[0]
            bad = Witness(w.f, w.invariants._replace(p_rank=2))
            return rep._replace(witnesses=(bad, *rep.witnesses[1:]))

        monkeypatch.setattr(search, "run_search", first_with_p_rank_2)
        with pytest.raises(RuntimeError, match="p-rank 2"):
            verify_p_rank_witnesses(5)


class TestSuitesModule:
    def test_every_suite_search_goes_through_the_engine(self, monkeypatch):
        # tracers and test doubles replace search.run_search and nothing else
        import cartier.search as search
        from cartier import suites

        real = search.run_search
        calls = []

        def recorder(spec, **kwargs):
            calls.append(spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(search, "run_search", recorder)
        runs = {
            "reproduce_script": (lambda: suites.reproduce_script(2, samples=10), 1),
            "verify_theorem1": (lambda: suites.verify_theorem1(3, 1, 3), 1),
            "verify_p_rank_witnesses": (lambda: suites.verify_p_rank_witnesses(3), 1),
        }
        for name, (run, searches) in runs.items():
            calls.clear()
            run()
            assert len(calls) == searches, name

    def test_public_names_exist_and_are_exported(self):
        import cartier
        from cartier import search, suites

        for mod in (search, suites):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"
        for name in suites.__all__:
            assert getattr(cartier, name) is getattr(suites, name), name


class TestForwardFormCheck:
    def test_degenerate_p7(self, F7):
        res = forward_form_check(F7.zero, F7.zero)
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
                res = forward_form_check(ch, cl)
                assert res.invariants.genus == p - 1
                assert not res.invariants.smooth

    def test_rank_recorded_not_asserted(self, F5):
        rng = random.Random(23)
        res = forward_form_check(random_element(F5, rng), random_element(F5, rng))
        assert 0 <= res.invariants.rank_a <= 4

    def test_rejects_other_characteristic(self, F3):
        with pytest.raises(ValueError):
            forward_form_check(F3.one, F3.one)


class TestGenusPMinus1:
    def test_smoke_family_shape(self):
        # the full 390,625-candidate verification runs in the acceptance
        # suite; here only the reconstruction rule on known instances
        from cartier.suites import _genus_p_minus_1_form

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


@pytest.fixture(scope="module")
def records():
    """One instance of each record type, with a field to change and a new
    value for it."""
    F5 = make_field(5)
    f = parse_poly(F5, "0,1,0,0,0,1")
    rep = run_search(monic_odd_family(F5, 2, target_a=0, collect_limit=2))
    return {
        "FieldSpec": (F5, "k", 2),
        "Curve": (make_curve(f), "smooth", False),
        "Invariants": (invariants(f), "genus", 3),
        "CartierMatrix": (cartier_matrix(make_curve(f)), "g", 3),
        "SearchSpec": (rep.spec, "prefilter", False),
        "SearchCounts": (rep.counts, "squarefree", 0),
        "Witness": (rep.witnesses[0], "f", f),
        "SearchReport": (rep, "elapsed_ms", -1),
        "ConsistencyReport": (verify_theorem1(3, 1, 3), "passed", False),
    }


class TestRecords:
    """The record types are immutable values that survive the pool's pickling."""

    @pytest.mark.parametrize(
        "name",
        ["FieldSpec", "Curve", "Invariants", "CartierMatrix", "SearchSpec",
         "SearchCounts", "Witness", "SearchReport", "ConsistencyReport"],
    )
    def test_value_semantics(self, records, name):
        record, attr, value = records[name]
        assert type(record).__name__ == name
        old = getattr(record, attr)
        assert old != value
        with pytest.raises(AttributeError):
            setattr(record, attr, value)
        assert getattr(record, attr) == old
        assert pickle.loads(pickle.dumps(record)) == record
        changed = record._replace(**{attr: value})
        assert type(changed) is type(record) and getattr(changed, attr) == value
        assert getattr(record, attr) == old and changed != record

    def test_field_spec_hash_is_its_fields(self):
        F9 = make_field(3, 2, [1, 0, 1])
        assert hash(F9) == hash((3, 2, (1, 0, 1)))
        assert {F9: 1}[make_field(3, 2, [1, 0, 1])] == 1
