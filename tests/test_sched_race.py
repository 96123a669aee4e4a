"""Tests for the SMP runqueue race replay: clean on the real protocol,
deterministic detection on both seeded mutants, and the analyze CLI
dispatching sched mutants to the sched replay."""

import pytest

from repro.analysis.cli import run_analysis
from repro.analysis.mutants import MUTANTS
from repro.analysis.sched_race import (
    DoubleEnqueueProtocol,
    StealLockElisionProtocol,
    detect_sched_races,
    replay_sched,
)

#: The quick-mode CI seed set — determinism is asserted seed by seed.
SEEDS = (0, 1, 2, 3)


# -- the real protocol --------------------------------------------------------


def test_real_protocol_is_clean():
    report = detect_sched_races(SEEDS)
    assert report.clean, [race.render() for race in report.races]
    assert report.schedules == len(SEEDS)
    assert report.accesses > 0


def test_replay_is_deterministic():
    first = replay_sched(3)
    second = replay_sched(3)
    assert first.seq == second.seq
    assert first.accesses == second.accesses
    assert len(first.races) == len(second.races)


# -- the mutants --------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_steal_lock_elision_flagged_at_every_seed(seed):
    report = detect_sched_races([seed],
                                protocol_cls=StealLockElisionProtocol)
    assert not report.clean
    # the elided source lock shows up in the report: an rq0 access
    # without rq0.lock conflicting with the victim core's own access
    assert any("rq0" in race.location or "ent" in race.location
               for race in report.races)


@pytest.mark.parametrize("seed", SEEDS)
def test_double_enqueue_flagged_at_every_seed(seed):
    report = detect_sched_races([seed],
                                protocol_cls=DoubleEnqueueProtocol)
    assert not report.clean
    # the double-queued thread's entity is written by both cores
    assert any(race.location.startswith("ent")
               for race in report.races)


def test_mutant_detection_is_deterministic():
    for cls in [m.target for m in MUTANTS.values() if m.kind == "sched"]:
        first = detect_sched_races(SEEDS, protocol_cls=cls)
        second = detect_sched_races(SEEDS, protocol_cls=cls)
        assert len(first.races) == len(second.races)
        assert [r.location for r in first.races] == \
            [r.location for r in second.races]


# -- CLI dispatch -------------------------------------------------------------


def test_analyze_race_pass_covers_sched_protocol():
    report = run_analysis(skip={"layering", "purity"}, seeds=[0])
    assert report.clean
    assert report.stats["race"]["target"] == "nr-protocol"
    assert report.stats["race_sched"]["target"] == "sched-protocol"
    assert report.stats["race_sched"]["races"] == 0


def test_analyze_sched_mutant_dispatch():
    report = run_analysis(skip={"layering", "purity"}, seeds=[0],
                          mutant="sched-double-enqueue")
    assert not report.clean
    assert report.stats["race_sched"]["races"] > 0
    # the sched mutant replay replaces the NR pass entirely
    assert "race" not in report.stats
    paths = {finding.path for finding in report.findings}
    assert paths == {"src/repro/analysis/sched_race.py"}


def test_analyze_nr_mutant_still_dispatches():
    report = run_analysis(skip={"layering", "purity"}, seeds=[0],
                          mutant="reader-lock-elision")
    assert not report.clean
    assert report.stats["race"]["races"] > 0
    assert "race_sched" not in report.stats


def test_analyze_unknown_mutant_rejected():
    with pytest.raises(SystemExit):
        run_analysis(skip={"layering", "purity"}, seeds=[0],
                     mutant="no-such-mutant")
