"""The parallel VC-discharge scheduler.

Turns a :class:`repro.verif.engine.ProofEngine` population into a scheduled,
cached, observable job system:

* **cache pass** — every SMT VC's goal is built and fingerprinted in the
  parent; persistent-cache hits never reach a worker;
* **fan-out** — dispatch units run on one of two lanes: a process pool
  (the CDCL solver is GIL-bound, so threads cannot scale it) or inline in
  the parent.  Goal-builder closures do not pickle, so workers receive
  ``(builder name, kwargs, vc names)`` and rebuild their VCs from
  :mod:`repro.prover.registry`; a unit with no registered builder, an
  ambiguous VC name, or no fork context runs inline while the pool works;
* **ordering** — longest-expected-first, using last-observed durations from
  the cache's timing history, so the slowest VC (the paper's 11 s tail)
  starts first instead of serializing the end of the run;
* **family grouping** — SMT goals with the same *shape* (same lemma
  template at different constants) are grouped by
  :func:`repro.prover.fingerprint.family_fingerprint` into one dispatch
  unit; every unit, singleton or family, is discharged by
  :func:`repro.verif.vc.discharge_family`, which shares one
  :class:`repro.smt.solver.FamilySolver` among two or more SMT goals and
  gives a singleton the classic single-shot path, so its result
  (counterexample model included) is bit-identical to the serial engine's;
* **per-VC timeout + retry** — SMT discharges run under the conflict
  budgets of ``ProverConfig.budgets``, one per attempt; a budget overrun
  is a ``TIMEOUT`` retried under the next budget.  The default ladder
  ``(100_000, 400_000, None)`` ends unbounded, so a scheduled run proves
  exactly what the serial engine proves;
* **determinism** — results are reassembled into the engine's insertion
  order, so the :class:`ProofReport` contents and ordering are identical
  for any ``jobs`` value (only the wall-clock changes).

Every lifecycle step is emitted on a structured event stream
(:mod:`repro.prover.events`).
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace

from repro import obs
from repro.prover import events as ev
from repro.prover import registry
from repro.prover.cache import ProofCache, default_cache_dir
from repro.prover.events import EventLog, ProofEvent
from repro.prover.fingerprint import family_fingerprint, goal_fingerprint, \
    structural_fingerprint
from repro.verif.engine import ProofEngine, ProofReport
from repro.verif.vc import VC, VCResult, VCStatus, crashed, discharge_family

#: Cold-start duration estimates (seconds) per category, used for
#: longest-expected-first ordering before any timing history exists.
_EXPECTED_BY_CATEGORY = {
    "invariants": 3.0,
    "refinement": 2.0,
    "simulation": 1.5,
    "nr-linearizability": 1.0,
    "hardware-agreement": 0.5,
    "tlb": 0.3,
    "contract": 0.2,
}
_EXPECTED_DEFAULT = 0.05


@dataclass
class ProverConfig:
    """Knobs of a scheduled run."""

    jobs: int = 1
    use_cache: bool = True
    cache_dir: str | None = None
    #: The retry ladder: one SMT conflict budget per attempt, retried on
    #: TIMEOUT.  A final ``None`` runs the last attempt unbounded; a
    #: finite last entry lets undecided goals surface as TIMEOUT.
    budgets: tuple = (100_000, 400_000, None)
    #: Optional :class:`repro.faults.plan.FaultPlan`.  The inline lane
    #: draws at site ``"prover.worker"`` before each discharge; a firing
    #: ``worker-crash`` rule kills that worker, which the scheduler must
    #: absorb as an ERROR verdict, never a lost run.
    fault_plan: object | None = None
    #: Run the SatELite CNF preprocessor on every SMT discharge.
    preprocess: bool = True
    #: Group same-shape SMT goals into families discharged through one
    #: shared incremental solver (assumption-based).  Disabling forces the
    #: classic one-solver-per-VC path for every goal.
    incremental: bool = True


class WorkerCrash(RuntimeError):
    """A (simulated) prover worker died mid-discharge."""


# ---------------------------------------------------------------------------
# Process-pool worker side
# ---------------------------------------------------------------------------


def _pool_discharge(builder: str, kwargs: dict, vc_names: list,
                    budgets, preprocess: bool) -> list[tuple[VCResult, int]]:
    """Worker entry point: rebuild one dispatch unit's VCs by name and
    discharge them in order.  A counterexample that cannot pickle travels
    as its repr."""
    vcs = [registry.rebuild_vc(builder, kwargs, name) for name in vc_names]
    outs = discharge_family(vcs, budgets, preprocess)
    for result, _ in outs:
        try:
            pickle.dumps(result.counterexample)
        except Exception:
            result.counterexample = repr(result.counterexample)
    return outs


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


@dataclass
class _Job:
    index: int       # position in the engine's canonical order
    vc: VC
    fingerprint: str | None = None   # cache key (SMT VCs only)
    family: str | None = None        # shape-grouping key (SMT VCs only)
    build_seconds: float = 0.0       # goal construction + cache lookup
    expected: float = _EXPECTED_DEFAULT


class ProverScheduler:
    """One scheduled run over an engine's VC population."""

    def __init__(self, engine: ProofEngine,
                 config: ProverConfig | None = None,
                 cache: ProofCache | None = None,
                 progress=None) -> None:
        self.engine = engine
        self.config = config or ProverConfig()
        if cache is not None:
            self.cache = cache
        elif self.config.use_cache:
            self.cache = ProofCache(self.config.cache_dir
                                    or default_cache_dir())
        else:
            self.cache = None
        self.events = EventLog()
        self.progress = progress
        self._t0 = 0.0
        self._unique_names: set[str] = set()

    # -- event helpers -----------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _emit(self, kind: str, vc: VC | None = None, **kw) -> None:
        self.events.emit(ProofEvent(
            kind=kind,
            vc=vc.name if vc is not None else "",
            category=vc.category if vc is not None else "",
            t=self._now(),
            **kw,
        ))

    # -- run ---------------------------------------------------------------

    def run(self) -> ProofReport:
        self._t0 = time.perf_counter()
        run_span = obs.span("prover.run",
                            histogram="prover.run_seconds").start()
        ordered = self.engine.vcs()
        results: list[VCResult | None] = [None] * len(ordered)
        history = self.cache.load_timings() if self.cache else {}
        fresh_timings: dict[str, float] = {}

        # Name-keyed reconstruction and structural cache keys both require
        # unambiguous names; VCs sharing a name stay in-process, uncached.
        counts: dict[str, int] = {}
        for vc in ordered:
            counts[vc.name] = counts.get(vc.name, 0) + 1
        self._unique_names = {n for n, c in counts.items() if c == 1}

        pending: list[_Job] = []
        for index, vc in enumerate(ordered):
            self._emit(ev.QUEUED, vc)
            job = _Job(index=index, vc=vc)
            job.expected = history.get(
                vc.name, _EXPECTED_BY_CATEGORY.get(vc.category,
                                                   _EXPECTED_DEFAULT))
            if self.cache is not None or (self.config.incremental
                                          and vc.is_smt):
                start = time.perf_counter()
                hit = None
                try:
                    if vc.is_smt:
                        goal = vc.goal_builder()
                        if self.config.incremental:
                            job.family = family_fingerprint(goal)
                        if self.cache is not None:
                            job.fingerprint = goal_fingerprint(
                                goal, vc.simplify, self.config.preprocess,
                                self.config.incremental)
                    elif (self.cache is not None
                          and self.engine.rebuild_spec is not None
                          and vc.name in self._unique_names):
                        builder, kwargs = self.engine.rebuild_spec
                        job.fingerprint = structural_fingerprint(
                            builder, kwargs, vc.name)
                    if job.fingerprint is not None:
                        hit = self.cache.get(job.fingerprint)
                except Exception:
                    # A goal builder that cannot even construct its term
                    # will surface the error through the normal discharge
                    # path below; never let the cache pass crash the run.
                    job.fingerprint = None
                    job.family = None
                job.build_seconds = time.perf_counter() - start
                if hit is not None:
                    result = self.cache.result_from(hit, vc,
                                                    job.build_seconds)
                    results[index] = result
                    obs.counter("prover.cache_hits").inc()
                    self._emit(ev.CACHE_HIT, vc, seconds=job.build_seconds)
                    if self.progress is not None:
                        self.progress(result)
                    continue
            pending.append(job)

        # Longest-expected-first; index breaks ties deterministically.
        pending.sort(key=lambda j: (-j.expected, j.index))
        units = self._form_units(pending)

        self._dispatch(units, results, fresh_timings)

        report = ProofReport(results=[r for r in results if r is not None])
        run_span.finish()
        report.wall_seconds = self._now()
        if self.cache is not None and fresh_timings:
            self.cache.store_timings(fresh_timings)
        self._emit(ev.RUN_FINISHED, None, seconds=report.wall_seconds,
                   solver_seconds=report.solver_seconds)
        return report

    # -- lanes -------------------------------------------------------------

    def _finish(self, job: _Job, result: VCResult, attempt: int, lane: str,
                results, fresh_timings) -> None:
        result.seconds += job.build_seconds
        results[job.index] = result
        fresh_timings[job.vc.name] = result.seconds
        obs.counter("prover.discharged", lane=lane).inc()
        if (job.fingerprint is not None and self.cache is not None):
            self.cache.put(job.fingerprint, result)
        self._emit(ev.FINISHED, job.vc, seconds=result.seconds,
                   solver_seconds=result.solver_seconds, worker=lane,
                   status=result.status.value, attempt=attempt)
        if self.progress is not None:
            self.progress(result)

    def _maybe_crash(self, vc: VC) -> None:
        plan = self.config.fault_plan
        if plan is None:
            return
        decision = plan.draw("prover.worker")
        if decision is not None and decision.kind == "worker-crash":
            raise WorkerCrash(f"injected crash discharging {vc.name}")

    def _lane_discharge(self, unit: list[_Job]) -> list[tuple[VCResult, int]]:
        return discharge_family([job.vc for job in unit],
                                self.config.budgets, self.config.preprocess,
                                on_member=self._maybe_crash)

    def _form_units(self, pending) -> list[list[_Job]]:
        """Group pending jobs into dispatch units.

        A unit is a list of jobs discharged together: singletons take the
        classic one-solver-per-VC path; families of ≥2 same-shape SMT goals
        share one incremental solver.  A unit is placed at the position of
        its highest-priority member, with members in canonical engine
        order, so unit formation is a deterministic function of the
        population regardless of job count.
        """
        if not self.config.incremental:
            return [[job] for job in pending]
        by_family: dict[tuple, list[_Job]] = {}
        for job in pending:
            if job.family is not None:
                key = (job.family, job.vc.simplify)
                by_family.setdefault(key, []).append(job)
        units: list[list[_Job]] = []
        claimed: set[int] = set()
        for job in pending:
            if job.index in claimed:
                continue
            members = (by_family.get((job.family, job.vc.simplify), [])
                       if job.family is not None else [])
            if len(members) >= 2:
                unit = sorted(members, key=lambda j: j.index)
                claimed.update(j.index for j in unit)
                obs.counter("prover.family_reuse").inc(len(unit) - 1)
                units.append(unit)
            else:
                units.append([job])
        return units

    def _fork_context(self):
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            return None

    def _dispatch(self, units, results, fresh_timings) -> None:
        """Send every unit the pool can rebuild to the process pool, run
        the rest inline while the pool works, then collect the pool."""
        spec = self.engine.rebuild_spec
        context = (self._fork_context()
                   if self.config.jobs > 1 and spec is not None else None)
        # Reconstruction is by name: a unit with an ambiguous (duplicated)
        # member name stays inline, and a family unit travels whole.
        pooled: list[list[_Job]] = []
        inline: list[list[_Job]] = []
        for unit in units:
            (pooled if context is not None and all(
                job.vc.name in self._unique_names for job in unit)
             else inline).append(unit)
        executor = (ProcessPoolExecutor(max_workers=self.config.jobs,
                                        mp_context=context)
                    if pooled else None)
        try:
            futures = {}
            for unit in pooled:
                self._start(unit, "proc")
                futures[executor.submit(
                    _pool_discharge, *spec, [job.vc.name for job in unit],
                    self.config.budgets, self.config.preprocess)] = unit
            for unit in inline:
                self._start(unit, "inline")
                self._collect(unit, "inline",
                              lambda: self._lane_discharge(unit),
                              results, fresh_timings)
            for future in as_completed(futures):
                self._collect(futures[future], "proc", future.result,
                              results, fresh_timings)
        finally:
            if executor is not None:
                executor.shutdown(wait=True)

    def _start(self, unit: list[_Job], lane: str) -> None:
        for job in unit:
            self._emit(ev.STARTED, job.vc, worker=lane)

    def _collect(self, unit, lane: str, outcomes, results,
                 fresh_timings) -> None:
        """Finish every member of `unit` from ``outcomes()``; a dead
        worker costs each member an ERROR verdict, not the run."""
        try:
            outs = outcomes()
        except Exception as exc:
            outs = [(crashed(job.vc, exc), 1) for job in unit]
        for job, (result, attempt) in zip(unit, outs):
            self._finish(job, result, attempt, lane, results, fresh_timings)


def prove_all(engine: ProofEngine, jobs: int | None = None,
              cache: ProofCache | None = None,
              config: ProverConfig | None = None,
              progress=None) -> ProofReport:
    """Discharge every VC of `engine` under the scheduler.

    Returns a :class:`ProofReport` whose contents and ordering are
    independent of `jobs`; `report.wall_seconds` carries the end-to-end
    time and `report.cache_hits` the number of VCs served from the
    persistent proof cache.  `jobs` defaults to ``config.jobs``; an
    explicit value applies to a copy, never to the caller's config.  Pass
    ``config=ProverConfig(use_cache=False)`` (or a `cache` instance) to
    control caching explicitly."""
    config = config or ProverConfig()
    if jobs is not None:
        config = replace(config, jobs=jobs)
    scheduler = ProverScheduler(engine, config=config, cache=cache,
                                progress=progress)
    return scheduler.run()
