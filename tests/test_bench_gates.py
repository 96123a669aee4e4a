"""Every bound ``benchmarks/check_bench_json.py`` enforces, pinned.

The committed baselines and hand-built Figure 1 documents must pass;
a copy with exactly one field broken must exit 1, one case per bound;
and a run whose ``quick`` flag differs from the baseline's skips the
baseline gates instead of comparing unlike populations.
"""

import copy
import json
from pathlib import Path

import pytest

from benchmarks.check_bench_json import main

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
DELETE = object()


def _baseline(bench):
    return json.loads((BENCH_DIR / f"baseline_{bench}.json").read_text())


def _fig1(bench):
    unverified = (5.0, 15.0, 30.0, 45.0, 60.0)
    return {
        "schema_version": 1,
        "bench": bench,
        "impl_cost_ratio": 1.1,
        "series": {
            str(cores): {"unverified_mean_us": mean,
                         "verified_mean_us": mean * 1.1,
                         "verified_p99_us": mean * 2}
            for cores, mean in zip((1, 8, 16, 24, 28), unverified)
        },
        "vspace_obs": {"pages": 64, "batch": 16, "shootdown_rounds": 4,
                       "shootdown_pages": 64,
                       "mapped_pages_gauge_delta": 0,
                       "batch_pages_recorded": 8, "batch_pages_p50": 16},
    }


def _fig1a():
    timing = {"p50_seconds": 0.01, "p99_seconds": 0.5,
              "total_seconds": 9.0, "wall_seconds": 10.0}
    return {
        "schema_version": 1,
        "bench": "fig1a",
        "quick": True,
        "total_vcs": 220,
        "cold": dict(timing),
        "warm": dict(timing),
        "cache_hit_rate": 1.0,
        "solver_counters": dict(_baseline("fig1a")["solver_counters"]),
    }


def _document(bench):
    if bench == "fig1a":
        return _fig1a()
    if bench in ("fig1b", "fig1c"):
        return _fig1(bench)
    return _baseline(bench)


#: benches whose CLI run is compared against a committed baseline
BASELINED = ("fig1a", "cluster", "sched", "ring")


def _run(tmp_path, document, bench):
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(document))
    argv = [str(path)]
    if bench in BASELINED:
        argv += ["--baseline", str(BENCH_DIR / f"baseline_{bench}.json")]
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


def _mutated(bench, dotted, value):
    document = copy.deepcopy(_document(bench))
    *parents, leaf = dotted.split(".")
    node = document
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[leaf]
    else:
        node[leaf] = value
    return document


_CLUSTER_ENTRY = ("nodes", "rf", "issued", "acked", "failed", "undrained",
                  "lost_acked_writes", "ryw_violations", "sim_ns",
                  "throughput_ops_per_s")
_CLUSTER_RECOVERY = ("acked", "gaveup", "undrained", "lost_acked_writes",
                     "ryw_violations", "fsck_issues", "replayed_records",
                     "recovered_keys", "recovery_ticks", "rf_restore_ticks")
_SCHED_ENTRY = ("cores", "ticks", "quanta", "sim_ns", "throughput_qps",
                "context_switches", "migrations", "steals", "preemptions",
                "rt_throttles")
_RING_CELL = ("procs", "ops", "wall_seconds", "ops_per_s", "p50_s", "p99_s",
              "ring_batches", "ring_sqes", "shootdown_rounds",
              "shootdown_rounds_obs")
_VSPACE_OBS = ("pages", "batch", "shootdown_rounds", "shootdown_pages",
               "mapped_pages_gauge_delta", "batch_pages_recorded")

#: (bench, field, replacement): each breaks exactly one field
MUTATIONS = [
    ("cluster", "schema_version", 2),
    ("cluster", "bench", "nope"),
    # fig1a: schema, then the solver-counter baseline gates
    ("fig1a", "quick", "yes"),
    ("fig1a", "total_vcs", DELETE),
    ("fig1a", "total_vcs", 1.5),
    ("fig1a", "cold", []),
    ("fig1a", "cache_hit_rate", "high"),
    ("fig1a", "solver_counters", None),
    *[("fig1a", f"{block}.{key}", "x")
      for block in ("cold", "warm")
      for key in ("p50_seconds", "p99_seconds", "total_seconds",
                  "wall_seconds")],
    ("fig1a", "warm.wall_seconds", DELETE),
    ("fig1a", "solver_counters.decided_structurally", 29),
    ("fig1a", "solver_counters.sat_conflicts", 551),
    # fig1b/fig1c: schema and the real-VSpace probe's shootdown story
    *[(bench, field, value)
      for bench in ("fig1b", "fig1c")
      for field, value in [("impl_cost_ratio", "x"), ("series", []),
                           ("vspace_obs", DELETE),
                           ("vspace_obs.shootdown_rounds", 5),
                           ("vspace_obs.shootdown_pages", 63),
                           ("vspace_obs.mapped_pages_gauge_delta", 1),
                           *[(f"vspace_obs.{key}", DELETE)
                             for key in _VSPACE_OBS]]],
    # cluster: schema, the exact contract, recovery, baseline collapse
    ("cluster", "quick", "x"),
    ("cluster", "seed", DELETE),
    ("cluster", "profile", []),
    ("cluster", "series", {}),
    ("cluster", "recovery", DELETE),
    *[("cluster", f"series.3.{key}", DELETE) for key in _CLUSTER_ENTRY],
    *[("cluster", f"series.1.{op}.{field}", DELETE)
      for op in ("put", "get") for field in ("count", "p50_ns", "p99_ns")],
    *[("cluster", f"series.3.{key}", 1)
      for key in ("lost_acked_writes", "ryw_violations", "undrained")],
    *[("cluster", f"recovery.{key}", DELETE) for key in _CLUSTER_RECOVERY],
    *[("cluster", f"recovery.{key}", 1)
      for key in ("lost_acked_writes", "ryw_violations", "undrained",
                  "fsck_issues")],
    ("cluster", "recovery.serving", False),
    ("cluster", "recovery.recovery_ticks", -1),
    ("cluster", "recovery.rf_restore_ticks", -1),
    ("cluster", "series.3", DELETE),
    ("cluster", "series.3.acked", 449),
    ("cluster", "series.1.put.p99_ns", 176_001),
    ("cluster", "series.3.get.p99_ns", 12_001),
    ("cluster", "recovery.recovery_ticks", 25),
    ("cluster", "recovery.rf_restore_ticks", 33),
    # sched: schema, monotone scaling, fairness, baseline collapse
    ("sched", "quick", 1),
    ("sched", "seed", DELETE),
    ("sched", "profile", []),
    ("sched", "series", {}),
    ("sched", "fairness", DELETE),
    *[("sched", f"series.2.{key}", DELETE) for key in _SCHED_ENTRY],
    *[("sched", f"series.4.{kind}.{field}", DELETE)
      for kind in ("interactive", "rt")
      for field in ("count", "p50_ns", "p99_ns")],
    ("sched", "series.2.throughput_qps", 999.0),
    ("sched", "series.4.throughput_qps", 1999.0),
    ("sched", "fairness.max_rel_error", DELETE),
    ("sched", "fairness.max_rel_error", 0.051),
    ("sched", "series.8", DELETE),
    ("sched", "series.8.throughput_qps", 3999.0),
    ("sched", "series.8.interactive.p99_ns", 4_000_001),
    # ring: schema, the SQE/shootdown accounting, the 3x headline, and
    # exact deterministic counts against the baseline
    ("ring", "quick", None),
    ("ring", "iters", "32"),
    ("ring", "batch", DELETE),
    ("ring", "pt_batch", 16.0),
    ("ring", "proc_counts", {}),
    ("ring", "series", {}),
    ("ring", "speedup", DELETE),
    ("ring", "ring_obs", []),
    ("ring", "series.fs.8.single", DELETE),
    *[("ring", f"series.net.1.batched.{key}", DELETE) for key in _RING_CELL],
    ("ring", "series.pt.8.batched.shootdown_rounds_obs", 17),
    ("ring", "series.fs.1.single.ring_sqes", 1),
    ("ring", "series.net.8.batched.ring_sqes", 255),
    ("ring", "series.pt.8.batched.ring_sqes", 31),
    ("ring", "series.pt.8.single.shootdown_rounds", 255),
    ("ring", "series.pt.8.batched.shootdown_rounds", 17),
    ("ring", "speedup.pt.8", DELETE),
    ("ring", "speedup.pt.8", 2.99),
    ("ring", "series.pt.1", DELETE),
    ("ring", "series.fs.8.single.ops", 257),
    ("ring", "series.fs.8.batched.ring_batches", 17),
    ("ring", "series.fs.1.batched.ring_sqes", 33),
    ("ring", "series.fs.1.single.shootdown_rounds", 1),
    ("ring", "series.net.8.single.ops_per_s", 1.0),
    # a bool is not a count, although isinstance(True, int) holds
    ("cluster", "schema_version", True),
    ("fig1a", "total_vcs", True),
    ("ring", "iters", False),
    ("cluster", "series.1.failed", False),
    ("sched", "series.2.steals", False),
    ("fig1b", "vspace_obs.mapped_pages_gauge_delta", False),
    # bounds the bench tests used to assert on their own
    ("fig1a", "cache_hit_rate", 0.89),
    ("fig1b", "series.8.unverified_mean_us", 30.0),
    ("fig1c", "series.28.verified_mean_us", 96.0),
    ("fig1b", "vspace_obs.batch_pages_recorded", 9),
    ("cluster", "series.3.issued", 901),
    ("cluster", "recovery.replayed_records", 0),
    ("cluster", "series.1.get.p50_ns", 6000),
    ("sched", "series.1.quanta", 0),
    ("sched", "series.4.interactive.p99_ns", 32_000_001),
    ("sched", "series.2.migrations", 0),
    ("ring", "series.fs.8.single.procs", 7),
]


@pytest.mark.parametrize("bench", ("fig1a", "fig1b", "fig1c", "cluster",
                                   "sched", "ring"))
def test_unmutated_documents_pass(tmp_path, bench):
    assert _run(tmp_path, _document(bench), bench) == 0


@pytest.mark.parametrize(
    "bench,field,value", MUTATIONS,
    ids=[f"{bench}:{field}={'<del>' if value is DELETE else value!r}"
         for bench, field, value in MUTATIONS])
def test_each_bound_fails_when_broken(tmp_path, bench, field, value):
    assert _run(tmp_path, _mutated(bench, field, value), bench) == 1


@pytest.mark.parametrize("bench,field,value", [
    ("cluster", "series.1.put.p99_ns", 10**9),
    ("sched", "series.8.throughput_qps", 1.0),
    ("ring", "series.net.8.single.ops_per_s", 1.0),
])
def test_quick_mismatch_skips_baseline_gates(tmp_path, capsys, bench, field,
                                             value):
    document = _mutated(bench, field, value)
    document["quick"] = not document["quick"]
    assert _run(tmp_path, document, bench) == 0
    assert "quick flag differs from baseline" in capsys.readouterr().out
