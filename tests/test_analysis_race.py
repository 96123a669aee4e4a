"""Tests for the NR step-protocol race detector: clean on the real
protocol, deterministic detection on the seeded lock-elision mutants,
and unit coverage of the lockset + vector-clock core."""

from repro.analysis.mutants import (
    MUTANTS,
    ReaderLockElisionNR,
    WriterLockElisionNR,
)
from repro.analysis.race import Access, RaceMonitor, detect_races
from repro.nr.datastructures import KvStore

SEEDS = (0, 1)


def _mutant_factory(cls):
    return lambda: cls(KvStore, num_nodes=2)


# -- the monitor core ---------------------------------------------------------------


def test_unordered_unguarded_conflict_is_a_race():
    mon = RaceMonitor()
    mon.step_begin(0)
    mon.data_write("x")
    mon.step_end("w")
    mon.step_begin(1)
    mon.data_read("x")
    mon.step_end("r")
    assert len(mon.races) == 1
    race = mon.races[0]
    assert race.location == "x"
    assert {race.first.kind, race.second.kind} == {"read", "write"}


def test_atomic_cell_release_acquire_orders_accesses():
    mon = RaceMonitor()
    mon.step_begin(0)
    mon.data_write("x")
    mon.atomic_write("cell")      # release: publish t0's clock
    mon.step_end("w")
    mon.step_begin(1)
    mon.atomic_read("cell")       # acquire: join t0's clock
    mon.data_read("x")
    mon.step_end("r")
    assert mon.races == []


def test_rwlock_release_acquire_orders_accesses():
    mon = RaceMonitor()
    mon.step_begin(0)
    mon.acquire("L", "write")
    mon.data_write("x")
    mon.release("L", "write")
    mon.step_end("w")
    mon.step_begin(1)
    mon.acquire("L", "read")
    mon.data_read("x")
    mon.release("L", "read")
    mon.step_end("r")
    assert mon.races == []


def test_lockset_guard_needs_common_lock_with_write_mode():
    def access(thread, kind, locks):
        return Access(thread=thread, kind=kind, clock={}, locks=locks,
                      label=None, seq=0)

    writer = access(0, "write", frozenset({("L", "write")}))
    reader = access(1, "read", frozenset({("L", "read")}))
    other = access(1, "read", frozenset({("M", "read")}))
    both_read = access(1, "read", frozenset({("L", "read")}))
    reader2 = access(0, "read", frozenset({("L", "read")}))
    assert RaceMonitor._guarded(writer, reader)
    assert not RaceMonitor._guarded(writer, other)
    assert not RaceMonitor._guarded(reader2, both_read)


def test_same_thread_accesses_never_race():
    mon = RaceMonitor()
    for label in ("a", "b"):
        mon.step_begin(0)
        mon.data_write("x")
        mon.step_end(label)
    assert mon.races == []


# -- the real protocol --------------------------------------------------------------


def test_real_nr_protocol_has_no_races():
    report = detect_races(SEEDS)
    assert report.clean, [r.render() for r in report.races]
    assert report.schedules == len(SEEDS)
    assert report.steps > 0
    assert report.accesses > 0


# -- the seeded mutants -------------------------------------------------------------


def test_reader_lock_elision_is_detected_at_fixed_seed():
    report = detect_races((0,),
                          nr_factory=_mutant_factory(ReaderLockElisionNR))
    assert len(report.races) >= 1
    race = report.races[0]
    assert race.location.endswith(".ds")
    kinds = {race.first.kind, race.second.kind}
    assert "write" in kinds
    # The unlocked access is the reader's READ step.
    unlocked = [a for a in (race.first, race.second) if not a.locks]
    assert unlocked and all(a.label == "read" for a in unlocked)


def test_writer_lock_elision_is_detected_at_fixed_seed():
    report = detect_races((0,),
                          nr_factory=_mutant_factory(WriterLockElisionNR))
    assert len(report.races) >= 1
    race = report.races[0]
    assert race.location.endswith(".ds")
    unlocked = [a for a in (race.first, race.second) if not a.locks]
    assert unlocked and all(a.label == "apply" for a in unlocked)


def test_detection_is_deterministic():
    runs = [detect_races((0,),
                         nr_factory=_mutant_factory(ReaderLockElisionNR))
            for _ in range(2)]
    rendered = [[race.render() for race in run.races] for run in runs]
    assert rendered[0] == rendered[1]
    assert runs[0].steps == runs[1].steps
    assert runs[0].accesses == runs[1].accesses


def test_every_registered_mutant_is_caught():
    for name, mutant in MUTANTS.items():
        if mutant.kind != "nr":
            continue
        report = detect_races(SEEDS,
                              nr_factory=_mutant_factory(mutant.target))
        assert report.races, f"mutant {name!r} was not detected"
