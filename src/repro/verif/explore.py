"""Bounded state-space exploration (explicit-state model checking).

Used to discharge inductive-invariant and simulation obligations over the
small representative configurations the proof enumerates — the "lightweight
formal methods" flavour of the paper's refinement proof.  :class:`FiniteModel`
is the shared scaffold of the scheduler and rely-guarantee VC families:
explore once, then explored / inductive / vacuity VCs over that one set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.verif.statemachine import SpecStateMachine
from repro.verif.vc import VC


@dataclass
class ExploreResult:
    """Result of a bounded reachability run."""

    states: list = field(default_factory=list)
    truncated: bool = False
    violation: tuple | None = None  # (invariant_name, state, trace)

    @property
    def ok(self) -> bool:
        return self.violation is None


def reachable_states(
    machine: SpecStateMachine,
    max_states: int = 10_000,
    max_depth: int | None = None,
    steps: dict | None = None,
) -> ExploreResult:
    """BFS over the machine's reachable states, checking invariants.

    Traces to violations are recorded so VC counterexamples are replayable.
    When `steps` is given, it receives each expanded state's list of
    enabled ``(name, args, successor)`` triples, so later obligations over
    the same states need not recompute them.
    """
    result = ExploreResult()
    seen: set = set()
    queue: deque = deque()
    for init in machine.init_states:
        if init in seen:
            continue
        seen.add(init)
        queue.append((init, 0, ()))

    while queue:
        state, depth, trace = queue.popleft()
        violated = machine.check_invariants(state)
        if violated is not None:
            result.violation = (violated, state, trace)
            result.states = list(seen)
            return result
        result.states.append(state)
        if max_depth is not None and depth >= max_depth:
            result.truncated = True
            continue
        enabled = list(machine.enabled_steps(state))
        if steps is not None:
            steps[state] = enabled
        for name, args, successor in enabled:
            if successor in seen:
                continue
            if len(seen) >= max_states:
                result.truncated = True
                continue
            seen.add(successor)
            queue.append((successor, depth + 1, trace + ((name, args),)))
    return result


def check_inductive(
    machine: SpecStateMachine,
    states,
    invariant_name: str,
    steps=None,
) -> tuple | None:
    """Check that one invariant is inductive over a given set of states:
    if it holds in `s` it holds after every enabled step.  Returns a
    counterexample (state, transition, args, successor) or None.

    `steps(state)` yields the ``(name, args, successor)`` triples to
    check; it defaults to ``machine.enabled_steps``."""
    invariant = machine.invariants[invariant_name]
    if steps is None:
        steps = machine.enabled_steps
    for state in states:
        if not invariant(state):
            continue  # vacuous: induction only cares about inv states
        for name, args, successor in steps(state):
            if not invariant(successor):
                return (state, name, args, successor)
    return None


class FiniteModel:
    """One finite spec model behind a VC family.

    `builder()` makes the :class:`SpecStateMachine`; the model explores
    it at most once, on first use, and every VC built here shares that
    reachable set and one successor table: each state's enabled steps are
    computed once, by the exploration or on first demand.  The VC
    factories cover the obligations every finite model carries: full
    coverage of the reachable space, inductiveness of each invariant, and
    non-vacuity of the invariants.
    """

    def __init__(self, builder, category: str, max_states: int) -> None:
        self.builder = builder
        self.category = category
        self.max_states = max_states
        self._explored: tuple | None = None
        self._steps: dict = {}
        self._extra: dict = {}

    def explored(self) -> tuple[SpecStateMachine, ExploreResult]:
        if self._explored is None:
            machine = self.builder()
            self._explored = (machine, reachable_states(
                machine, max_states=self.max_states, steps=self._steps))
        return self._explored

    def _enabled_steps(self, state) -> list:
        enabled = self._steps.get(state)
        if enabled is None:
            machine, _result = self.explored()
            enabled = self._steps[state] = list(machine.enabled_steps(state))
        return enabled

    def _induction_states(self, extra_states) -> list:
        """The reachable states plus those of `extra_states(reachable)`
        that satisfy every invariant, computed once per function."""
        machine, result = self.explored()
        if extra_states is None:
            return result.states
        if extra_states not in self._extra:
            self._extra[extra_states] = result.states + [
                s for s in extra_states(result.states)
                if machine.check_invariants(s) is None]
        return self._extra[extra_states]

    def explored_vc(self, name: str, description: str) -> VC:
        """Exploration covers the whole space (hitting the cap is a
        regression signal) with every invariant holding."""
        def check():
            _machine, result = self.explored()
            if result.truncated:
                return ("state space exceeded the exploration cap",
                        self.max_states)
            if not result.ok:
                invariant, state, trace = result.violation
                return (invariant, trace, state)
            return None

        return VC(name=name, category=self.category, check=check,
                  description=description)

    def inductive_vc(self, invariant: str, name: str, description: str,
                     action: str | None = None,
                     extra_states=None) -> VC:
        """`invariant` is preserved by every enabled step from the
        reachable states — by the single transition `action` if given
        (stability under one interfering guarantee).  `extra_states`,
        a function of the reachable states, adds unvisited states; only
        those satisfying the invariant *conjunction* count (the usual
        strengthening: a state already violating a sibling invariant is
        unreachable noise, not a counterexample)."""
        def steps(state):
            enabled = self._enabled_steps(state)
            if action is None:
                return enabled
            return [step for step in enabled if step[0] == action]

        def check():
            machine, _result = self.explored()
            if action is not None:
                machine.transition(action)  # an unknown action is an error
            return check_inductive(machine,
                                   self._induction_states(extra_states),
                                   invariant, steps=steps)

        return VC(name=name, category=self.category, check=check,
                  description=description)

    def vacuity_vc(self, broken_states, name: str,
                   description: str) -> VC:
        """`broken_states()` maps each invariant to a hand-built state
        that must violate *that* invariant; every invariant needs one,
        so none of them can be vacuous."""
        def check():
            invariants = self.builder().invariants
            broken = broken_states()
            for invariant in invariants:
                if invariant not in broken:
                    return ("invariant has no broken witness", invariant)
            for invariant, state in broken.items():
                if invariants[invariant](state):
                    return ("broken state not flagged", invariant, state)
            return None

        return VC(name=name, category=self.category, check=check,
                  description=description)
