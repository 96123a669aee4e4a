"""Tests for state machines, exploration, refinement, and the proof engine."""

from collections import Counter

import pytest

from repro.smt import ast
from repro.verif.engine import ProofEngine
from repro.verif.explore import FiniteModel, check_inductive, reachable_states
from repro.verif.refinement import RefinementProof, SimulationCase
from repro.verif.statemachine import SpecStateMachine, Transition
from repro.verif.vc import VC, VCStatus, forall_vc, smt_vc


def counter_machine(limit=5, stride=1):
    """A bounded counter: inc when below limit, reset anytime."""
    return SpecStateMachine(
        name="counter",
        init_states=[0],
        transitions=[
            Transition(
                name="inc",
                enabled=lambda s, a: s < limit,
                apply=lambda s, a: s + stride,
            ),
            Transition(
                name="reset",
                enabled=lambda s, a: True,
                apply=lambda s, a: 0,
            ),
        ],
        invariants={"bounded": lambda s: 0 <= s <= limit},
    )


class TestStateMachine:
    def test_step(self):
        m = counter_machine()
        assert m.step(0, "inc") == 1
        assert m.step(3, "reset") == 0

    def test_step_disabled_raises(self):
        m = counter_machine(limit=2)
        with pytest.raises(ValueError):
            m.step(2, "inc")

    def test_unknown_transition(self):
        with pytest.raises(KeyError):
            counter_machine().transition("nope")

    def test_enabled_steps(self):
        m = counter_machine(limit=1)
        steps = list(m.enabled_steps(1))
        assert ("reset", (), 0) in steps
        assert all(name != "inc" for name, _, _ in steps)

    def test_check_invariants(self):
        m = counter_machine(limit=3)
        assert m.check_invariants(2) is None
        assert m.check_invariants(7) == "bounded"


class TestExplore:
    def test_reachable_states(self):
        result = reachable_states(counter_machine(limit=4))
        assert result.ok
        assert sorted(result.states) == [0, 1, 2, 3, 4]
        assert not result.truncated

    def test_invariant_violation_found_with_trace(self):
        machine = counter_machine(limit=5, stride=2)
        machine.invariants["even_only_wrong"] = lambda s: s != 4
        result = reachable_states(machine)
        assert not result.ok
        name, state, trace = result.violation
        assert name == "even_only_wrong"
        assert state == 4
        # replay the trace from an initial state
        replayed = machine.init_states[0]
        for step_name, args in trace:
            replayed = machine.step(replayed, step_name, args)
        assert replayed == state

    def test_truncation(self):
        result = reachable_states(counter_machine(limit=100), max_states=10)
        assert result.truncated

    def test_max_depth(self):
        result = reachable_states(counter_machine(limit=50), max_depth=3)
        assert result.truncated
        assert max(result.states) <= 3

    def test_check_inductive_holds(self):
        m = counter_machine(limit=4)
        assert check_inductive(m, range(0, 5), "bounded") is None

    def test_check_inductive_counterexample(self):
        m = counter_machine(limit=4)
        m.invariants["lt3"] = lambda s: s < 3
        cex = check_inductive(m, range(0, 5), "lt3")
        assert cex is not None
        state, name, args, successor = cex
        assert state == 2 and name == "inc" and successor == 3


class TestFiniteModel:
    @staticmethod
    def _machine():
        """Reachable 0, 2, 4 satisfy `not3`; the unreachable 1 steps to 3."""
        machine = counter_machine(limit=4, stride=2)
        machine.invariants["not3"] = lambda s: s != 3
        return machine

    def _counterexample(self, model, invariant, **kwargs):
        vc = model.inductive_vc(invariant, "vc", "", **kwargs)
        return vc.discharge().counterexample

    def test_inductive_vc_matches_check_inductive(self):
        def builder():
            machine = counter_machine(limit=5)
            machine.invariants["lt3"] = lambda s: s < 3
            return machine

        machine = builder()
        states = reachable_states(machine).states
        model = FiniteModel(builder, "test", 100)
        expected = check_inductive(machine, states, "lt3")
        assert expected == (2, "inc", (), 3)
        assert self._counterexample(model, "lt3") == expected
        for action in ("inc", "reset"):
            sub = SpecStateMachine("sub", machine.init_states,
                                   [machine.transition(action)],
                                   machine.invariants)
            assert (self._counterexample(model, "lt3", action=action)
                    == check_inductive(sub, states, "lt3"))

    def test_inductive_vc_with_extra_states(self):
        def extra(states):
            return [5, 1]  # 5 breaks `bounded`, so only 1 counts

        machine = self._machine()
        states = reachable_states(machine).states
        model = FiniteModel(self._machine, "test", 100)
        assert self._counterexample(model, "not3") is None
        expected = check_inductive(machine, states + [1], "not3")
        assert expected == (1, "inc", (), 3)
        assert self._counterexample(model, "not3",
                                    extra_states=extra) == expected
        assert self._counterexample(model, "not3", action="inc",
                                    extra_states=extra) == expected
        assert self._counterexample(model, "not3", action="reset",
                                    extra_states=extra) is None

    def test_enabled_steps_once_per_reachable_state(self):
        calls = Counter()

        def builder():
            machine = self._machine()
            enabled_steps = machine.enabled_steps

            def counted(state):
                calls[state] += 1
                return enabled_steps(state)

            machine.enabled_steps = counted
            return machine

        model = FiniteModel(builder, "test", 100)
        vcs = [model.explored_vc("explored", "")]
        for invariant in ("bounded", "not3"):
            vcs.append(model.inductive_vc(invariant, invariant, ""))
            for action in ("inc", "reset"):
                vcs.append(model.inductive_vc(invariant, invariant, "",
                                              action=action))
        assert all(vc.discharge().ok for vc in vcs)
        reachable = model.explored()[1].states
        assert calls == Counter(reachable)


class TestRefinement:
    def _machines(self):
        # low: counter stepping by 1 twice per high step (with parity flag)
        low = SpecStateMachine(
            name="low",
            init_states=[(0, 0)],
            transitions=[
                Transition(
                    name="half",
                    enabled=lambda s, a: s[0] < 6,
                    apply=lambda s, a: (s[0] + 1, 1 - s[1]),
                ),
            ],
        )
        high = SpecStateMachine(
            name="high",
            init_states=[0],
            transitions=[
                Transition(
                    name="tick",
                    enabled=lambda s, a: s < 3,
                    apply=lambda s, a: s + 1,
                ),
            ],
        )
        return low, high

    def test_simulation_holds(self):
        low, high = self._machines()
        states = [s for s in reachable_states(low).states]

        # abstraction: completed pairs of half-steps
        proof = RefinementProof(
            low=low,
            high=high,
            abstraction=lambda s: s[0] // 2,
            cases=[
                # a half step is a stutter when it starts a pair, a tick
                # when it completes one; model both with a custom VC split
                # by parity using two cases over the same low transition.
            ],
            state_source=lambda: states,
        )
        # init obligation alone
        assert proof.init_vc().discharge().ok

    def test_commuting_diagram(self):
        identity = lambda s: s
        base = SpecStateMachine(
            name="base",
            init_states=[0],
            transitions=[
                Transition("inc", lambda s, a: s < 3, lambda s, a: s + 1)
            ],
        )
        proof = RefinementProof(
            low=base,
            high=base,
            abstraction=identity,
            cases=[SimulationCase("inc", "inc")],
            state_source=lambda: [0, 1, 2, 3],
        )
        report_results = [vc.discharge() for vc in proof.all_vcs()]
        assert all(r.ok for r in report_results)

    def test_broken_diagram_detected(self):
        low = SpecStateMachine(
            name="low2",
            init_states=[0],
            transitions=[
                Transition("inc2", lambda s, a: s < 4, lambda s, a: s + 2)
            ],
        )
        high = SpecStateMachine(
            name="high2",
            init_states=[0],
            transitions=[
                Transition("inc1", lambda s, a: True, lambda s, a: s + 1)
            ],
        )
        proof = RefinementProof(
            low=low,
            high=high,
            abstraction=lambda s: s,
            cases=[SimulationCase("inc2", "inc1")],
            state_source=lambda: [0, 2, 4],
        )
        result = proof.step_vc(proof.cases[0]).discharge()
        assert result.status is VCStatus.FAILED
        assert "commute" in result.detail

    def test_stutter_case(self):
        low = SpecStateMachine(
            name="low3",
            init_states=[(0, 0)],
            transitions=[
                Transition(
                    "internal",
                    lambda s, a: True,
                    lambda s, a: (s[0], s[1] + 1) if s[1] < 3 else s,
                )
            ],
        )
        high = SpecStateMachine(name="high3", init_states=[0], transitions=[])
        proof = RefinementProof(
            low=low,
            high=high,
            abstraction=lambda s: s[0],
            cases=[SimulationCase("internal", None)],
            state_source=lambda: [(0, 0), (0, 1)],
        )
        assert proof.step_vc(proof.cases[0]).discharge().ok


class TestVCsAndEngine:
    def test_forall_vc_pass_and_fail(self):
        good = forall_vc("all_even", "demo", range(0, 10, 2), lambda x: x % 2 == 0)
        assert good.discharge().ok
        bad = forall_vc("all_even_bad", "demo", range(5), lambda x: x % 2 == 0)
        result = bad.discharge()
        assert result.status is VCStatus.FAILED
        assert result.counterexample == 1

    def test_smt_vc(self):
        x = ast.bv_var("x", 8)
        vc = smt_vc("x_eq_x", "lemmas", lambda: ast.eq(x, x))
        assert vc.discharge().ok
        bad = smt_vc("x_eq_0", "lemmas", lambda: ast.eq(x, ast.bv_const(0, 8)))
        result = bad.discharge()
        assert result.status is VCStatus.FAILED

    def test_vc_error_reported(self):
        def boom():
            raise RuntimeError("kaput")

        vc = VC(name="bad", category="demo", check=boom)
        result = vc.discharge()
        assert result.status is VCStatus.ERROR
        assert "kaput" in result.detail

    def test_engine_report(self):
        engine = ProofEngine()
        engine.add(forall_vc("a", "g1", [1, 2], lambda x: x > 0), group="g1")
        engine.add(forall_vc("b", "g1", [1, 2], lambda x: x < 2), group="g1")
        engine.add(forall_vc("c", "g2", [()], lambda x: True), group="g2")
        assert engine.vc_count == 3
        seen = []
        report = engine.run(progress=seen.append)
        assert len(seen) == 3
        assert report.total == 3
        assert report.proved == 2
        assert not report.all_proved
        assert len(report.failed) == 1
        assert report.total_seconds >= 0
        assert 0 < report.fraction_within(10.0) <= 1.0
        assert len(report.cdf()) == 3
        assert any("verification conditions: 3" in line
                   for line in report.summary_lines())

    def test_engine_group_reuse(self):
        engine = ProofEngine()
        engine.add(forall_vc("a", "g", [()], lambda x: True), group="g")
        engine.add(forall_vc("b", "g", [()], lambda x: True), group="g")
        assert len(engine.groups) == 1
