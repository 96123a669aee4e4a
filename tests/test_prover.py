"""Tests for the repro.prover subsystem: fingerprints, the persistent
proof cache, the parallel scheduler, conflict-budget timeouts, and
determinism under parallelism."""

from __future__ import annotations

import json
import os

import pytest

from repro.prover import (
    ProofCache,
    ProverConfig,
    goal_fingerprint,
    prove_all,
    register_builder,
    term_fingerprint,
)
from repro.prover import events as ev
from repro.prover.fingerprint import (
    solver_config_fingerprint,
    structural_fingerprint,
)
from repro.prover.scheduler import ProverScheduler
from repro.smt import ast
from repro.verif.engine import ProofEngine
from repro.verif.vc import VCStatus, discharge_family, forall_vc, smt_vc


def _goal_x_eq_x(width=8):
    x = ast.bv_var("x", width)
    return ast.eq(ast.bvand(x, ast.bv_const(0xF, width)),
                  ast.bvand(x, ast.bv_const(0xF, width)))


def _hard_goal(width=4):
    """(x + y)^2 == x^2 + 2xy + y^2 — valid, but needs real CDCL search
    (multipliers bit-blast into deep circuits), so a tiny conflict budget
    is exceeded deterministically; at width 4 the unbounded proof still
    lands in ~30 ms (width grows the search superlinearly — 8 bits is
    already ~40 s)."""
    x = ast.bv_var("x", width)
    y = ast.bv_var("y", width)
    s = ast.bvadd(x, y)
    lhs = ast.bvmul(s, s)
    two = ast.bv_const(2, width)
    rhs = ast.bvadd(ast.bvadd(ast.bvmul(x, x), ast.bvmul(y, y)),
                    ast.bvmul(two, ast.bvmul(x, y)))
    return ast.eq(lhs, rhs)


def _lemma_engine() -> ProofEngine:
    """A small, fast, fully reconstructible population: the SMT lemma
    layers of the real proof."""
    from repro.core.refine.proof import build_proof

    return build_proof(include_structural=False, include_nr=False,
                       include_contract=False)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_identical_goals_same_fingerprint(self):
        # Two separately constructed but structurally equal terms.
        assert term_fingerprint(_goal_x_eq_x()) == \
            term_fingerprint(_goal_x_eq_x())

    def test_mutated_goal_changes_fingerprint(self):
        x = ast.bv_var("x", 8)
        a = ast.eq(ast.bvadd(x, ast.bv_const(1, 8)), x)
        b = ast.eq(ast.bvadd(x, ast.bv_const(2, 8)), x)
        assert term_fingerprint(a) != term_fingerprint(b)

    def test_variable_name_matters(self):
        a = ast.eq(ast.bv_var("x", 8), ast.bv_const(0, 8))
        b = ast.eq(ast.bv_var("y", 8), ast.bv_const(0, 8))
        assert term_fingerprint(a) != term_fingerprint(b)

    def test_solver_config_changes_key(self):
        goal = _goal_x_eq_x()
        assert goal_fingerprint(goal, simplify=True) != \
            goal_fingerprint(goal, simplify=False)
        assert solver_config_fingerprint(True) != \
            solver_config_fingerprint(False)

    def test_structural_fingerprint_varies_by_identity(self):
        base = structural_fingerprint("b", {"depth": 3}, "vc1")
        assert base == structural_fingerprint("b", {"depth": 3}, "vc1")
        assert base != structural_fingerprint("b", {"depth": 2}, "vc1")
        assert base != structural_fingerprint("b", {"depth": 3}, "vc2")
        assert base != structural_fingerprint("other", {"depth": 3}, "vc1")


# ---------------------------------------------------------------------------
# Proof cache
# ---------------------------------------------------------------------------


class TestProofCache:
    def _run_twice(self, tmp_path, goal_builder):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("g", "lemmas", goal_builder))
        cold = prove_all(engine, cache=cache)

        engine2 = ProofEngine()
        engine2.add(smt_vc("g", "lemmas", goal_builder))
        warm = prove_all(engine2, cache=cache)
        return cold, warm, cache

    def test_hit_on_identical_goal(self, tmp_path):
        cold, warm, cache = self._run_twice(tmp_path, _goal_x_eq_x)
        assert cold.cache_hits == 0 and cold.all_proved
        assert warm.cache_hits == 1 and warm.all_proved
        assert cache.stats.hits == 1

    def test_miss_after_goal_mutation(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        prove_all(engine, cache=cache)

        def mutated():
            x = ast.bv_var("x", 8)
            return ast.eq(ast.bvor(x, ast.bv_const(1, 8)), x)

        engine2 = ProofEngine()
        engine2.add(smt_vc("g", "lemmas", mutated))
        warm = prove_all(engine2, cache=cache)
        assert warm.cache_hits == 0
        # ... and the mutated goal is genuinely refutable.
        assert warm.results[0].status is VCStatus.FAILED

    def test_miss_after_solver_config_change(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("g", "lemmas", _goal_x_eq_x, simplify=True))
        prove_all(engine, cache=cache)

        engine2 = ProofEngine()
        engine2.add(smt_vc("g", "lemmas", _goal_x_eq_x, simplify=False))
        warm = prove_all(engine2, cache=cache)
        assert warm.cache_hits == 0 and warm.all_proved

    def test_corrupted_cache_file_is_cold_miss(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        prove_all(engine, cache=cache)

        entries = [os.path.join(root, name)
                   for root, _, files in os.walk(tmp_path)
                   for name in files
                   if name.endswith(".json") and name != "timings.json"]
        assert entries
        for path in entries:
            with open(path, "w") as fh:
                fh.write("{ this is not json")

        engine2 = ProofEngine()
        engine2.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        warm = prove_all(engine2, cache=cache)
        assert warm.cache_hits == 0 and warm.all_proved
        assert cache.stats.invalid >= 1
        # The corrupted entry was replaced by a fresh, valid one.
        engine3 = ProofEngine()
        engine3.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        assert prove_all(engine3, cache=cache).cache_hits == 1

    def test_wrong_schema_is_cold_miss(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        fp = "ab" * 32
        path = cache._path(fp)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"status": "proved"}, fh)  # missing vc/format/seconds
        assert cache.get(fp) is None
        assert cache.stats.invalid == 1

    def test_timeout_results_are_not_cached(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("hard", "lemmas", _hard_goal))
        config = ProverConfig(budgets=(1,))
        report = prove_all(engine, cache=cache, config=config)
        assert report.results[0].status is VCStatus.TIMEOUT
        assert cache.stats.stores == 0

    def test_structural_results_cached_for_registered_builders(self, tmp_path):
        def build():
            engine = ProofEngine()
            engine.rebuild_spec = ("test-structural-pop", {})
            engine.add(forall_vc("evens", "demo", range(0, 10, 2),
                                 lambda x: x % 2 == 0))
            return engine

        register_builder("test-structural-pop", build)
        cache = ProofCache(str(tmp_path))
        cold = prove_all(build(), cache=cache)
        assert cold.all_proved and cold.cache_hits == 0
        warm = prove_all(build(), cache=cache)
        assert warm.all_proved and warm.cache_hits == 1

    def test_unregistered_structural_vcs_never_cached(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()  # no rebuild_spec
        engine.add(forall_vc("evens", "demo", [2, 4], lambda x: True))
        prove_all(engine, cache=cache)
        engine2 = ProofEngine()
        engine2.add(forall_vc("evens", "demo", [2, 4], lambda x: True))
        assert prove_all(engine2, cache=cache).cache_hits == 0


# ---------------------------------------------------------------------------
# Timeouts and the retry ladder
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_timeout_is_a_distinct_status(self):
        vc = smt_vc("hard", "lemmas", _hard_goal)
        result = vc.discharge(max_conflicts=1)
        assert result.status is VCStatus.TIMEOUT
        assert result.status is not VCStatus.FAILED
        assert result.counterexample is None
        assert "budget" in result.detail

    def test_timeout_surfaces_in_summary(self):
        from repro.verif.engine import ProofReport

        vc = smt_vc("hard", "lemmas", _hard_goal)
        report = ProofReport(results=[vc.discharge(max_conflicts=1)])
        assert len(report.timeouts) == 1
        assert any("timeout: 1" in line for line in report.summary_lines())

    def test_retry_ladder_eventually_proves(self):
        vc = smt_vc("hard", "lemmas", _hard_goal)
        # final attempt unbounded
        [(result, attempts)] = discharge_family([vc], (1, 4, None))
        assert result.status is VCStatus.PROVED
        assert attempts > 1

    def test_hard_budget_reports_timeout(self):
        engine = ProofEngine()
        engine.add(smt_vc("hard", "lemmas", _hard_goal))
        config = ProverConfig(use_cache=False, budgets=(1, 4))
        report = prove_all(engine, config=config)
        assert report.results[0].status is VCStatus.TIMEOUT
        assert not report.all_proved

    def test_budget_ladder_shape(self):
        from repro.__main__ import budget_ladder

        assert budget_ladder(100) == (100, 400, None)
        # `prove` without --budget runs the default ladder
        assert budget_ladder(100_000) == ProverConfig().budgets


# ---------------------------------------------------------------------------
# The scheduler: events, ordering, determinism under parallelism
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_event_stream_lifecycle(self, tmp_path):
        engine = ProofEngine()
        engine.add(smt_vc("g1", "lemmas", _goal_x_eq_x))
        engine.add(forall_vc("f1", "demo", [1, 2], lambda x: x > 0))
        cache = ProofCache(str(tmp_path))
        scheduler = ProverScheduler(engine, cache=cache)
        scheduler.run()
        counts = scheduler.events.counts()
        assert counts[ev.QUEUED] == 2
        assert counts[ev.STARTED] == 2
        assert counts[ev.FINISHED] == 2
        assert counts[ev.RUN_FINISHED] == 1

        # Warm run: the SMT VC becomes a cache-hit event instead.
        engine2 = ProofEngine()
        engine2.add(smt_vc("g1", "lemmas", _goal_x_eq_x))
        engine2.add(forall_vc("f1", "demo", [1, 2], lambda x: x > 0))
        scheduler2 = ProverScheduler(engine2, cache=cache)
        scheduler2.run()
        counts2 = scheduler2.events.counts()
        assert counts2[ev.CACHE_HIT] == 1
        assert counts2[ev.STARTED] == 1

    def test_longest_expected_first_uses_history(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        cache.store_timings({"slow": 9.0, "fast": 0.001})
        engine = ProofEngine()
        engine.add(forall_vc("fast", "demo", [1], lambda x: True))
        engine.add(forall_vc("slow", "demo", [1], lambda x: True))
        scheduler = ProverScheduler(engine, cache=cache)
        scheduler.run()
        started = [e.vc for e in scheduler.events.of_kind(ev.STARTED)]
        assert started == ["slow", "fast"]

    def test_report_order_matches_engine_order(self, tmp_path):
        engine = _lemma_engine()
        expected = [vc.name for vc in engine.vcs()]
        report = prove_all(engine, jobs=2,
                           cache=ProofCache(str(tmp_path)))
        assert [r.name for r in report.results] == expected
        assert report.wall_seconds > 0

    def test_determinism_jobs4_vs_jobs1(self):
        config1 = ProverConfig(use_cache=False)
        serial = prove_all(_lemma_engine(), jobs=1, config=config1)
        config4 = ProverConfig(use_cache=False)
        parallel = prove_all(_lemma_engine(), jobs=4, config=config4)

        assert [r.key() for r in serial.results] == \
            [r.key() for r in parallel.results]
        assert serial.proved == parallel.proved
        assert len(serial.failed) == len(parallel.failed)
        # Deterministic solver counters agree between lanes too.
        assert [r.solver_stats for r in serial.results] == \
            [r.solver_stats for r in parallel.results]

    def test_parallel_matches_serial_engine_run(self):
        engine = _lemma_engine()
        serial_report = engine.run()
        parallel = prove_all(_lemma_engine(), jobs=4,
                             config=ProverConfig(use_cache=False))
        assert [r.key() for r in serial_report.results] == \
            [r.key() for r in parallel.results]

    def test_warm_cache_full_population_hits(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        cold = prove_all(_lemma_engine(), jobs=2, cache=cache)
        assert cold.cache_hits == 0
        warm = prove_all(_lemma_engine(), jobs=2, cache=cache)
        assert warm.total == cold.total
        assert warm.cache_hits / warm.total >= 0.9
        assert [r.key() for r in warm.results] == \
            [r.key() for r in cold.results]

    def test_failed_vcs_keep_counterexamples_under_parallelism(self):
        def build():
            engine = ProofEngine()
            engine.rebuild_spec = ("test-failing-pop", {})
            engine.add(forall_vc("all_small", "demo", list(range(5)),
                                 lambda x: x < 3))
            x = ast.bv_var("x", 8)
            engine.add(smt_vc("x_is_zero", "lemmas",
                              lambda: ast.eq(x, ast.bv_const(0, 8))))
            return engine

        register_builder("test-failing-pop", build)
        report = prove_all(build(), jobs=2,
                           config=ProverConfig(use_cache=False))
        by_name = {r.name: r for r in report.results}
        assert by_name["all_small"].status is VCStatus.FAILED
        assert by_name["all_small"].counterexample == 3
        assert by_name["x_is_zero"].status is VCStatus.FAILED
        assert by_name["x_is_zero"].counterexample  # a model for x != 0

    def test_unreconstructible_population_runs_inline(self):
        engine = ProofEngine()  # no rebuild_spec: closures cannot pickle
        engine.add(forall_vc("a", "demo", [1, 2], lambda x: x > 0))
        engine.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        scheduler = ProverScheduler(
            engine, config=ProverConfig(jobs=3, use_cache=False))
        report = scheduler.run()
        assert report.all_proved
        lanes = {e.worker for e in scheduler.events.of_kind(ev.STARTED)}
        assert lanes == {"inline"}

    def test_ambiguous_names_run_inline_beside_the_pool(self):
        def build():
            engine = ProofEngine()
            engine.rebuild_spec = ("test-mixed-pop", {})
            engine.add(forall_vc("dup", "demo", [1, 2], lambda x: x > 0))
            engine.add(forall_vc("solo", "demo", [3], lambda x: x > 0))
            engine.add(forall_vc("dup", "demo", [4], lambda x: x > 0))
            engine.add(smt_vc("g", "lemmas", _goal_x_eq_x))
            return engine

        register_builder("test-mixed-pop", build)
        scheduler = ProverScheduler(
            build(), config=ProverConfig(jobs=2, use_cache=False))
        report = scheduler.run()
        assert report.all_proved
        assert [r.name for r in report.results] == ["dup", "solo", "dup", "g"]
        lanes = {e.vc: e.worker for e in scheduler.events.of_kind(ev.STARTED)}
        assert lanes == {"dup": "inline", "solo": "proc", "g": "proc"}

    def test_injected_crashes_independent_of_jobs(self):
        from repro.faults.plan import FaultPlan, FaultRule

        def errors(jobs):
            engine = ProofEngine()  # no rebuild_spec: every unit inline
            for i in range(6):
                engine.add(forall_vc(f"f{i}", "demo", [i], lambda x: True))
                engine.add(smt_vc(f"g{i}", "lemmas",
                                  lambda i=i: _family_goal(i + 1)))
            plan = FaultPlan(7, rules=[FaultRule(
                site="prover.worker", kind="worker-crash", every=4)])
            report = prove_all(engine, jobs=jobs, config=ProverConfig(
                use_cache=False, fault_plan=plan))
            return [r.name for r in report.results
                    if r.status is VCStatus.ERROR]

        serial = errors(1)
        assert serial and serial == errors(3)

    def test_explicit_jobs_never_rewrites_the_callers_config(self):
        from repro import obs

        def build():
            engine = ProofEngine()
            engine.rebuild_spec = ("test-config-pop", {})
            engine.add(forall_vc("a", "demo", [1], lambda x: True))
            return engine

        register_builder("test-config-pop", build)
        pooled = obs.counter("prover.discharged", lane="proc")
        config = ProverConfig(jobs=4, use_cache=False)
        before = pooled.value
        prove_all(build(), config=config)  # runs at config.jobs
        assert pooled.value == before + 1
        assert config.jobs == 4
        prove_all(build(), jobs=1, config=config)
        assert pooled.value == before + 1 and config.jobs == 4

    def test_worker_error_is_reported_not_raised(self):
        def build():
            engine = ProofEngine()
            engine.rebuild_spec = ("test-error-pop", {})

            def boom():
                raise RuntimeError("kaput")

            from repro.verif.vc import VC
            engine.add(VC(name="bad", category="demo", check=boom))
            return engine

        register_builder("test-error-pop", build)
        report = prove_all(build(), jobs=2,
                           config=ProverConfig(use_cache=False))
        assert report.results[0].status is VCStatus.ERROR
        assert "kaput" in report.results[0].detail


# ---------------------------------------------------------------------------
# ProofReport.cdf downsampling (regression: `points` used to be ignored)
# ---------------------------------------------------------------------------


class TestReportCdf:
    def _report(self, n):
        from repro.verif.engine import ProofReport
        from repro.verif.vc import VCResult

        return ProofReport(results=[
            VCResult(name=f"vc{i}", status=VCStatus.PROVED,
                     seconds=float(i + 1), category="demo")
            for i in range(n)
        ])

    def test_downsamples_to_points(self):
        report = self._report(220)
        series = report.cdf(points=50)
        assert len(series) == 50
        # The final sample is always the slowest VC at fraction 1.0.
        assert series[-1] == (220.0, 1.0)
        # Fractions are non-decreasing.
        fractions = [f for _, f in series]
        assert fractions == sorted(fractions)

    def test_small_population_returned_whole(self):
        report = self._report(7)
        series = report.cdf(points=50)
        assert len(series) == 7
        assert series[-1] == (7.0, 1.0)

    def test_default_caps_at_50(self):
        assert len(self._report(220).cdf()) == 50

    def test_points_validated(self):
        with pytest.raises(ValueError):
            self._report(3).cdf(points=0)

    def test_empty_report(self):
        assert self._report(0).cdf() == []


# ---------------------------------------------------------------------------
# Family grouping / incremental assumption solving
# ---------------------------------------------------------------------------


def _family_goal(k, width=8):
    """One instantiation of a shared lemma template: (x | k) & k == k.
    Valid for every constant k; all instantiations share their AIG shape."""
    x = ast.bv_var("x", width)
    c = ast.bv_const(k, width)
    return ast.eq(ast.bvand(ast.bvor(x, c), c), c)


def _family_engine(constants=(0x0F, 0x3C, 0x55, 0xF0)) -> ProofEngine:
    engine = ProofEngine()
    for k in constants:
        engine.add(smt_vc(f"family_or_absorb_{k:#x}", "lemmas",
                          lambda k=k: _family_goal(k)))
    return engine


class TestFamilyGrouping:
    def test_same_shape_goals_share_a_fingerprint(self):
        from repro.prover.fingerprint import family_fingerprint

        fps = {family_fingerprint(_family_goal(k))
               for k in (0x0F, 0x3C, 0x55)}
        assert len(fps) == 1
        # a different template is a different family
        assert family_fingerprint(_goal_x_eq_x()) not in fps

    def test_family_discharge_matches_classic_verdicts(self):
        incremental = prove_all(
            _family_engine(),
            config=ProverConfig(use_cache=False, incremental=True))
        classic = prove_all(
            _family_engine(),
            config=ProverConfig(use_cache=False, incremental=False))
        assert incremental.all_proved
        assert [r.key() for r in incremental.results] == \
            [r.key() for r in classic.results]

    def test_lemma_population_identical_with_and_without_grouping(self):
        grouped = prove_all(
            _lemma_engine(),
            config=ProverConfig(use_cache=False, incremental=True))
        ungrouped = prove_all(
            _lemma_engine(),
            config=ProverConfig(use_cache=False, incremental=False))
        assert [r.key() for r in grouped.results] == \
            [r.key() for r in ungrouped.results]

    def test_family_reuse_counter_increments(self):
        from repro import obs

        counter = obs.counter("prover.family_reuse")
        before = counter.value
        report = prove_all(
            _family_engine(),
            config=ProverConfig(use_cache=False, incremental=True))
        assert report.all_proved
        # 4 members, 1 shared solver: 3 discharges reused a context
        assert counter.value - before == 3

    def test_failing_member_keeps_counterexample(self):
        """A family where one member is false: its model must survive the
        shared-solver path (reconstruction + concrete re-evaluation) while
        the true members still prove."""
        engine = _family_engine(constants=(0x0F, 0x3C))
        x = ast.bv_var("x", 8)
        bad = ast.eq(ast.bvand(ast.bvor(x, ast.bv_const(0x55, 8)),
                               ast.bv_const(0x55, 8)),
                     ast.bv_const(0x54, 8))  # never true
        engine.add(smt_vc("family_or_absorb_bad", "lemmas", lambda: bad))
        report = prove_all(
            engine, config=ProverConfig(use_cache=False, incremental=True))
        by_name = {r.name: r for r in report.results}
        assert by_name["family_or_absorb_0xf"].ok
        assert by_name["family_or_absorb_0x3c"].ok
        failed = by_name["family_or_absorb_bad"]
        assert failed.status is VCStatus.FAILED
        assert failed.counterexample is not None

    def test_jobs4_matches_jobs1_with_families(self):
        serial = prove_all(_family_engine(), jobs=1,
                           config=ProverConfig(use_cache=False))
        parallel = prove_all(_family_engine(), jobs=4,
                             config=ProverConfig(use_cache=False))
        assert [r.key() for r in serial.results] == \
            [r.key() for r in parallel.results]
        assert [r.solver_stats for r in serial.results] == \
            [r.solver_stats for r in parallel.results]

    def test_incremental_flag_changes_cache_key(self):
        goal = _goal_x_eq_x()
        assert goal_fingerprint(goal, incremental=True) != \
            goal_fingerprint(goal, incremental=False)
        assert goal_fingerprint(goal, preprocess=True) != \
            goal_fingerprint(goal, preprocess=False)

    def test_hard_family_sound_under_shared_solver(self):
        """A family needing real CDCL search: shared-solver verdicts must
        match single-shot verdicts member by member."""
        from repro.smt.solver import FamilySolver, prove

        def goal(k, width=4):
            x = ast.bv_var("x", width)
            c = ast.bv_const(k, width)
            s = ast.bvadd(x, c)
            lhs = ast.bvmul(s, s)
            two_c = ast.bv_const((2 * k) % (1 << width), width)
            rhs = ast.bvadd(ast.bvadd(ast.bvmul(x, x),
                                      ast.bvmul(two_c, x)),
                            ast.bvmul(c, c))
            return ast.eq(lhs, rhs)

        goals = [goal(k) for k in (1, 2, 3)]
        shared = FamilySolver(goals)
        for index, g in enumerate(goals):
            member = shared.prove_member(index)
            single = prove(g)
            assert member.sat == single.sat is False, index
