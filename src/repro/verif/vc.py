"""Verification-condition objects.

A VC is a single, independently checkable proof obligation with a name, a
category (used to group the proof report the way Figure 2 groups the layers),
and a discharge strategy.  Discharging returns a :class:`VCResult` carrying
the outcome, the wall-clock time (the quantity plotted in Figure 1a), and a
counterexample when the obligation fails.

SMT-backed VCs additionally expose their `goal_builder`, so the prover
subsystem (:mod:`repro.prover`) can fingerprint the goal term for the
persistent proof cache and discharge it under a conflict budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro import obs


class VCStatus(enum.Enum):
    PROVED = "proved"
    FAILED = "failed"
    ERROR = "error"
    #: The solver ran out of its conflict budget before deciding the goal.
    #: Distinct from FAILED: a timed-out VC has no counterexample and may
    #: yet be proved with a larger budget (the scheduler's retry ladder).
    TIMEOUT = "timeout"


@dataclass
class VCResult:
    """Outcome of discharging one verification condition."""

    name: str
    status: VCStatus
    seconds: float
    category: str = ""
    detail: str = ""
    counterexample: object = None
    #: Time spent inside the solving pipeline itself (rewrite + bit-blast +
    #: SAT) — the "cumulative solver time" the event stream reports against
    #: wall-clock.  For non-SMT VCs this equals `seconds`.
    solver_seconds: float = 0.0
    #: True when the result was served from the persistent proof cache
    #: instead of being recomputed.
    cached: bool = False
    #: Machine-independent solver counters (conflicts, decisions, ...) for
    #: SMT VCs — what the proof cache persists alongside the verdict.
    solver_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is VCStatus.PROVED

    def key(self) -> tuple:
        """The machine-independent content of the result (no timings) —
        what must be identical between serial and parallel runs."""
        return (self.name, self.status.value, self.category, self.detail,
                repr(self.counterexample))


@dataclass
class VC:
    """A verification condition.

    `check` returns ``None`` on success or a counterexample object (anything
    truthy/printable) on failure.  Exceptions are caught by the engine and
    reported as ``ERROR``.

    When the VC is an SMT goal, `goal_builder` is the zero-argument term
    constructor and `simplify` the solver configuration; `check` may then be
    ``None`` — discharge routes through the solver directly, which lets
    callers impose a conflict budget (`max_conflicts`).
    """

    name: str
    category: str
    check: Callable[[], object | None] | None
    description: str = ""
    goal_builder: Callable[[], object] | None = None
    simplify: bool = True

    @property
    def is_smt(self) -> bool:
        return self.goal_builder is not None

    def _invoke(self, max_conflicts: int | None, preprocess: bool):
        if self.goal_builder is not None:
            from repro.smt.solver import prove

            return _outcome(prove(self.goal_builder(), simplify=self.simplify,
                                  max_conflicts=max_conflicts,
                                  preprocess=preprocess))
        assert self.check is not None, f"VC {self.name} has no strategy"
        return self.check(), None

    def discharge(self, max_conflicts: int | None = None,
                  preprocess: bool = True) -> VCResult:
        return _timed(self, lambda: self._invoke(max_conflicts, preprocess))


def _outcome(result) -> tuple:
    """A solver result as ``(counterexample or None, stats)``."""
    return (result.model if result.sat else None), result.stats


def _timed(vc: VC, invoke) -> VCResult:
    """Run one attempt, ``invoke() -> (counterexample or None, stats or
    None)``, and map it to a verdict: PROVED, FAILED with the
    counterexample, TIMEOUT on a conflict-budget overrun, or ERROR."""
    from repro.smt.sat import BudgetExceeded

    result = VCResult(name=vc.name, status=VCStatus.PROVED, seconds=0.0,
                      category=vc.category)
    # The span is the Figure 1a unit of measurement: its duration joins
    # the labeled `vc.discharge_seconds` population and, when tracing is
    # on, appears as a `vc.discharge` event.
    span = obs.span("vc.discharge", histogram="vc.discharge_seconds",
                    labels={"category": vc.category}, vc=vc.name).start()
    try:
        counterexample, stats = invoke()
    except BudgetExceeded as exc:
        result.status, result.detail = VCStatus.TIMEOUT, str(exc)
        result.seconds = result.solver_seconds = span.finish()
        return result
    except Exception as exc:  # surfaced, never swallowed silently
        result.status = VCStatus.ERROR
        result.detail = f"{type(exc).__name__}: {exc}"
        result.seconds = span.finish()
        return result
    result.seconds = span.finish()
    if stats is None:
        result.solver_seconds = result.seconds
    else:
        result.solver_seconds = stats.solver_seconds
        result.solver_stats = stats.deterministic()
    if counterexample is not None:
        result.status, result.detail = VCStatus.FAILED, str(counterexample)
        result.counterexample = counterexample
    return result


def crashed(vc: VC, exc: BaseException) -> VCResult:
    """The ERROR verdict of a VC whose worker died before it finished."""
    return VCResult(name=vc.name, status=VCStatus.ERROR, seconds=0.0,
                    category=vc.category,
                    detail=f"worker failed: {type(exc).__name__}: {exc}")


def discharge_family(vcs: list[VC], budgets=(None,), preprocess: bool = True,
                     on_member: Callable[[VC], None] | None = None,
                     ) -> list[tuple[VCResult, int]]:
    """Discharge one dispatch unit of 1..n VCs, in the given order, each
    under the retry ladder `budgets`; returns ``(result, attempts)`` per
    member, its `seconds` summed over the attempts.

    Two or more SMT goals share one incremental solver
    (:class:`repro.smt.solver.FamilySolver`): one AIG, one CNF, learnt
    clauses kept across members and across a member's retries.  The
    scheduler passes members in canonical engine order, which makes every
    member's delta-counters a deterministic function of the family alone.
    A single VC, a non-SMT VC, or a family whose shared context fails to
    build takes :meth:`VC.discharge`, so singletons are bit-identical to
    the serial engine (a goal-builder error then surfaces per VC).

    `on_member` is called before each member's first attempt; an
    exception it raises (the scheduler's fault-injection hook) costs that
    member a :func:`crashed` verdict and the unit moves on.
    """
    from repro.smt.solver import FamilySolver

    shared = None
    if len(vcs) >= 2 and all(vc.is_smt for vc in vcs):
        try:
            shared = FamilySolver([vc.goal_builder() for vc in vcs],
                                  simplify=vcs[0].simplify,
                                  preprocess=preprocess)
        except Exception:
            pass  # members take VC.discharge; the error surfaces per VC
    # Setup (rewrite + blast + encode + preprocess of the union) happened
    # once for everyone; spread it evenly over the members' timings.
    setup_share = (shared.setup_seconds / len(vcs)
                   if shared is not None else 0.0)
    out: list[tuple[VCResult, int]] = []
    for index, vc in enumerate(vcs):
        try:
            if on_member is not None:
                on_member(vc)
        except Exception as exc:
            out.append((crashed(vc, exc), 1))
            continue
        ladder = tuple(budgets) if vc.is_smt and budgets else (None,)
        total_seconds, total_solver = setup_share, 0.0
        for attempt, budget in enumerate(ladder, start=1):
            if shared is None:
                result = vc.discharge(max_conflicts=budget,
                                      preprocess=preprocess)
            else:
                result = _timed(vc, lambda: _outcome(
                    shared.prove_member(index, max_conflicts=budget)))
            total_seconds += result.seconds
            total_solver += result.solver_seconds
            if result.status is not VCStatus.TIMEOUT or attempt == len(ladder):
                break
        result.seconds, result.solver_seconds = total_seconds, total_solver
        out.append((result, attempt))
    return out


@dataclass
class VCGroup:
    """A named collection of VCs (one proof layer in Figure 2)."""

    name: str
    vcs: list[VC] = field(default_factory=list)

    def add(self, vc: VC) -> None:
        self.vcs.append(vc)

    def __len__(self) -> int:
        return len(self.vcs)


def smt_vc(name: str, category: str, goal_builder, description: str = "",
           simplify: bool = True) -> VC:
    """A VC discharged by the SMT solver.

    `goal_builder` is a zero-argument callable returning the goal term, so
    term construction time is attributed to the VC the way Verus attributes
    encoding time to each function's verification time.
    """

    return VC(name=name, category=category, check=None,
              description=description, goal_builder=goal_builder,
              simplify=simplify)


def forall_vc(name: str, category: str, cases, predicate, description: str = "") -> VC:
    """A VC discharged by exhaustive enumeration of `cases`.

    `cases` is an iterable (or a callable returning one); `predicate` returns
    True for good cases.  The first failing case is the counterexample.
    """

    def check():
        iterable = cases() if callable(cases) else cases
        for case in iterable:
            if not predicate(case):
                return case
        return None

    return VC(name=name, category=category, check=check, description=description)
