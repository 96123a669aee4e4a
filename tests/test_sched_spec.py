"""Tests for the scheduler specification and its proof obligations:
the bounded state space is finite and invariant-clean, every invariant
is inductive, hand-broken states are flagged (no vacuous invariants),
and the scheduler VC family discharges through the proof engine."""

from dataclasses import replace

import pytest

from repro.verif import schedspec as ss
from repro.verif.explore import check_inductive, reachable_states
from repro.verif.schedproof import (
    MAX_STATES,
    _broken_states,
    scheduler_vcs,
)


@pytest.fixture(scope="module")
def explored():
    machine = ss.sched_machine()
    return machine, reachable_states(machine, max_states=MAX_STATES)


# -- the state space ----------------------------------------------------------


def test_reachable_space_is_finite_and_clean(explored):
    machine, result = explored
    assert not result.truncated, \
        "per-core renormalization must keep the space finite"
    assert result.ok, f"invariant violated: {result.violation[:2]}"
    assert len(result.states) > 1_000


def test_every_invariant_is_inductive(explored):
    machine, result = explored
    for name in ss.INVARIANTS:
        counterexample = check_inductive(machine, result.states, name)
        assert counterexample is None, \
            f"{name} not inductive: {counterexample[:3]}"


def test_canonicalization_is_idempotent(explored):
    machine, result = explored
    for state in result.states[::200]:
        assert ss.canonical(state) == state


def test_transitions_preserve_canonical_form(explored):
    machine, result = explored
    state = result.states[0]
    for name, args, successor in machine.enabled_steps(state):
        assert ss.canonical(successor) == successor


# -- vacuity ------------------------------------------------------------------


def test_broken_states_are_flagged():
    broken = _broken_states()
    assert set(broken) == set(ss.INVARIANTS), \
        "every invariant needs a hand-broken witness"
    for expected, state in broken.items():
        assert not ss.INVARIANTS[expected](state), \
            f"hand-broken state for {expected} does not violate it"


def test_vacuity_vc_requires_a_witness_per_invariant():
    from repro.verif.explore import FiniteModel

    model = FiniteModel(ss.sched_machine, "scheduler", MAX_STATES)
    partial = dict(_broken_states())
    del partial["running_lag"]
    vc = model.vacuity_vc(lambda: partial, "partial", "")
    assert vc.check() == ("invariant has no broken witness",
                          "running_lag")
    misfiled = dict(_broken_states())
    misfiled["running_lag"] = misfiled["blocked_bounded"]
    vc = model.vacuity_vc(lambda: misfiled, "misfiled", "")
    assert vc.check()[:2] == ("broken state not flagged", "running_lag")


def test_rt_streak_violation_flagged():
    base = ss.uniprocessor_config()
    # pick the fair thread, then claim the streak survived the pick
    picked = ss.sched_machine().step(base, "pick", (0,))
    running = ss.running_on(picked, 0)
    if running.kind == ss.FAIR:
        broken = replace(picked, rt_streak=(1,))
        assert not ss.inv_rt_first(broken)


# -- the pick policy ----------------------------------------------------------


def test_pick_chooses_rt_over_fair():
    state = ss.smp_config()
    chosen = ss.pick_choice(state, 0)
    assert chosen.kind == ss.RT


def test_pick_throttle_forces_fair():
    state = ss.smp_config()
    throttled = replace(
        state, rt_streak=(ss.RT_STREAK_LIMIT, 0))
    chosen = ss.pick_choice(throttled, 0)
    assert chosen.kind == ss.FAIR
    # min-vruntime fair thread wins
    fair = ss.queued_on(throttled, 0, ss.FAIR)
    assert chosen.vruntime == min(t.vruntime for t in fair)


# -- the VC family ------------------------------------------------------------


def test_scheduler_vcs_all_discharge():
    vcs = scheduler_vcs()
    assert len(vcs) >= 10
    for vc in vcs:
        counterexample = vc.check()
        assert counterexample is None, \
            f"{vc.name} failed: {counterexample}"


def test_build_proof_registers_scheduler_group():
    from repro.core.refine.proof import build_proof

    engine = build_proof(include_lemmas=False, include_structural=False,
                         include_nr=False, include_contract=False,
                         include_sched=True)
    names = [vc.name for vc in engine.vcs()]
    assert any(name.startswith("sched-spec-") for name in names)
    assert any(name.startswith("sched-impl-") for name in names)
    assert all(vc.category == "scheduler" for vc in engine.vcs())
    assert engine.rebuild_spec[1]["include_sched"] is True


def test_scheduler_vcs_prove_through_engine():
    from repro.core.refine.proof import build_proof

    engine = build_proof(include_lemmas=False, include_structural=False,
                         include_nr=False, include_contract=False,
                         include_sched=True)
    report = engine.run()
    assert report.all_proved, \
        [r.name for r in report.failed]
