"""Validate a ``BENCH_*.json`` result file against its gate table.

Usage::

    python benchmarks/check_bench_json.py BENCH_fig1a.json \
        [--baseline benchmarks/baseline_fig1a.json]

Every bound a benchmark must meet is one row of ``GATES[bench]``: a
field path (``*`` ranges over the keys present at that level, and
``a+b`` sums two fields) and one gate kind:

* ``num`` — present, int or float, not bool; ``type`` — an instance of
  the given type (bool only when the type is bool);
* ``zero``, ``true``, ``floor``, ``ceiling`` — fixed bounds;
* ``exact``, ``shrink``, ``grow`` — against the baseline, when one is
  given: equal, not below ``1/factor`` of it, not above ``factor`` times
  it.  Every baseline row is also a ``num`` row.

Relations spanning several fields are the named rules of
``RULES[bench]``: a scope path, a name, and a predicate checked at
every path the scope names, once every row holds.  Baseline rows
compare only the keys the baseline has, and are skipped when the
baseline records a different ``quick`` flag (the populations differ).
Wall-clock only ever meets a ``shrink``/``grow`` collapse gate;
deterministic counters are gated exactly or by fixed bounds.

Exit status 0 on success, 1 with a diagnostic on any failure.
"""

from __future__ import annotations

import argparse
import json
import sys

EXPECTED_SCHEMA_VERSION = 1

NUM, TYPE, ZERO, TRUE, FLOOR, CEILING = (
    "num", "type", "zero", "true", "floor", "ceiling")
EXACT, SHRINK, GROW = "exact", "shrink", "grow"

_MISSING = object()


class GateFailure(AssertionError):
    """One or more gates failed; the message lists each."""


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: kind -> (holds(value, arg), what a failing value should have been)
_FIXED = {
    NUM: (lambda v, _: _is_num(v), "numeric"),
    TYPE: (lambda v, t: isinstance(v, t) and (
        t is bool or not isinstance(v, bool)), "of type {.__name__}"),
    ZERO: (lambda v, _: _is_num(v) and v == 0, "0"),
    TRUE: (lambda v, _: v is True, "true"),
    FLOOR: (lambda v, lo: _is_num(v) and v >= lo, ">= {}"),
    CEILING: (lambda v, hi: _is_num(v) and v <= hi, "<= {}"),
}

#: kind -> (holds(now, baseline, factor), how the value drifted)
_AGAINST_BASELINE = {
    EXACT: (lambda now, then, _: now == then, "drifted from"),
    SHRINK: (lambda now, then, f: now * f >= then,
             "collapsed more than {}x below"),
    GROW: (lambda now, then, f: now <= f * max(then, 1),
           "regressed more than {}x above"),
}

_TIMING = ("p50_seconds", "p99_seconds", "total_seconds", "wall_seconds")
_FIG1 = [
    ("impl_cost_ratio", NUM),
    *[(f"series.*.{key}", NUM) for key in (
        "unverified_mean_us", "verified_mean_us", "verified_p99_us")],
    *[(f"vspace_obs.{key}", NUM) for key in (
        "pages", "batch", "shootdown_rounds", "shootdown_pages",
        "batch_pages_recorded")],
    ("vspace_obs.mapped_pages_gauge_delta", ZERO),
]
_SEEDED = [("quick", TYPE, bool), ("seed", TYPE, int), ("profile", TYPE, dict)]
_MODES = ("single", "batched")

GATES: dict[str, list[tuple]] = {
    "fig1a": [
        ("quick", TYPE, bool),
        ("total_vcs", TYPE, int),
        *[(f"{block}.{key}", NUM)
          for block in ("cold", "warm") for key in _TIMING],
        ("cache_hit_rate", FLOOR, 0.9),
        ("solver_counters.decided_structurally"
         "+solver_counters.decided_by_preprocessing", SHRINK, 2),
        ("solver_counters.sat_conflicts", GROW, 2),
    ],
    "fig1b": _FIG1,
    "fig1c": _FIG1,
    "cluster": [
        *_SEEDED,
        *[(f"series.*.{key}", NUM) for key in (
            "nodes", "rf", "issued", "failed", "sim_ns",
            "throughput_ops_per_s")],
        ("series.*.acked", SHRINK, 2),
        *[(f"series.*.{key}", ZERO)
          for key in ("lost_acked_writes", "ryw_violations", "undrained")],
        *[(f"series.*.{op}.{key}", NUM)
          for op in ("put", "get") for key in ("count", "p50_ns")],
        *[(f"series.*.{op}.p99_ns", GROW, 4) for op in ("put", "get")],
        *[(f"recovery.{key}", NUM)
          for key in ("acked", "gaveup", "recovered_keys")],
        *[(f"recovery.{key}", ZERO) for key in (
            "lost_acked_writes", "ryw_violations", "undrained",
            "fsck_issues")],
        ("recovery.serving", TRUE),
        ("recovery.replayed_records", FLOOR, 1),
        *[(f"recovery.{key}", rule, arg)
          for key in ("recovery_ticks", "rf_restore_ticks")
          for rule, arg in ((FLOOR, 0), (GROW, 4))],
    ],
    "sched": [
        *_SEEDED,
        *[(f"series.*.{key}", NUM) for key in (
            "cores", "ticks", "sim_ns", "context_switches", "migrations",
            "steals", "preemptions", "rt_throttles")],
        ("series.*.quanta", FLOOR, 1),
        ("series.*.throughput_qps", SHRINK, 2),
        *[(f"series.*.{kind}.{key}", NUM)
          for kind in ("interactive", "rt") for key in ("count", "p50_ns")],
        ("series.*.interactive.p99_ns", GROW, 4),
        ("series.*.rt.p99_ns", NUM),
        ("fairness.max_rel_error", CEILING, 0.05),
    ],
    "ring": [
        ("quick", TYPE, bool),
        *[(key, TYPE, int) for key in ("iters", "batch", "pt_batch")],
        ("proc_counts", TYPE, list),
        ("ring_obs", TYPE, dict),
        *[(f"series.*.*.{mode}.{key}", NUM) for mode in _MODES for key in (
            "procs", "wall_seconds", "p50_s", "p99_s",
            "shootdown_rounds_obs")],
        *[(f"series.*.*.{mode}.{key}", EXACT) for mode in _MODES for key in (
            "ops", "ring_batches", "ring_sqes", "shootdown_rounds")],
        *[(f"series.*.*.{mode}.ops_per_s", SHRINK, 2) for mode in _MODES],
        ("series.*.*.single.ring_sqes", ZERO),
        # the headline: batched pt dispatch beats trap-per-call 3x at the
        # highest process count (8 in both the quick and the full run)
        ("speedup.pt.8", FLOOR, 3.0),
    ],
}


def _rising(values) -> bool:
    return all(low < high for low, high in zip(values, values[1:]))


#: Relations that span fields, per bench: (scope path, name, holds(node,
#: document)), checked at every concrete path the scope names once every
#: row holds.
_FIG1_RULES = [
    ("vspace_obs", "shootdown_rounds x batch == pages",
     lambda p, _: p["shootdown_rounds"] * p["batch"] == p["pages"]),
    ("vspace_obs", "shootdown_pages == pages",
     lambda p, _: p["shootdown_pages"] == p["pages"]),
    ("vspace_obs", "batch_pages_recorded x batch == 2 x pages",
     lambda p, _: p["batch_pages_recorded"] * p["batch"] == 2 * p["pages"]),
    ("series", "unverified mean latency rising with cores",
     lambda s, _: _rising([s[k]["unverified_mean_us"]
                           for k in sorted(s, key=int)])),
    ("series.*", "verified mean within 60% of unverified",
     lambda e, _: abs(e["verified_mean_us"] - e["unverified_mean_us"])
     < 0.6 * e["unverified_mean_us"]),
]

RULES: dict[str, list[tuple]] = {
    "fig1a": [],
    "fig1b": _FIG1_RULES,
    "fig1c": _FIG1_RULES,
    "cluster": [
        ("series.*", "acked == issued",
         lambda e, _: e["acked"] == e["issued"]),
        ("series", "1-node get p50 > 3 x 3-node get p50",
         lambda s, _: s["1"]["get"]["p50_ns"] > 3 * s["3"]["get"]["p50_ns"]),
    ],
    "sched": [
        ("series", "throughput monotone over 1, 2, 4 cores",
         lambda s, _: s["1"]["throughput_qps"] <= s["2"]["throughput_qps"]
         <= s["4"]["throughput_qps"]),
        ("series", "interactive p99 at 4 cores <= at 1 core",
         lambda s, _: s["4"]["interactive"]["p99_ns"]
         <= s["1"]["interactive"]["p99_ns"]),
        ("series.2", "migrations + steals > 0",
         lambda e, _: e["migrations"] + e["steals"] > 0),
    ],
    "ring": [
        ("series.*.*.*", "ops == procs x iters",
         lambda m, doc: m["ops"] == m["procs"] * doc["iters"]),
        ("series.*.*.*", "vspace and obs shootdown rounds agree",
         lambda m, _: m["shootdown_rounds"] == m["shootdown_rounds_obs"]),
        # one shootdown round per page single, per pt_batch pages batched
        ("series.pt.*.single", "shootdown_rounds == ops",
         lambda m, _: m["shootdown_rounds"] == m["ops"]),
        ("series.pt.*.batched", "shootdown_rounds x pt_batch == ops",
         lambda m, doc: m["shootdown_rounds"] * doc["pt_batch"] == m["ops"]),
        # every batched op rides an SQE; pt: a map and an unmap SQE per
        # pt_batch pages
        *[(f"series.{kind}.*.batched", "ring_sqes == ops",
           lambda m, _: m["ring_sqes"] == m["ops"]) for kind in ("fs", "net")],
        ("series.pt.*.batched", "ring_sqes x pt_batch == 2 x ops",
         lambda m, doc: m["ring_sqes"] * doc["pt_batch"] == 2 * m["ops"]),
    ],
}


# -- the table walk -----------------------------------------------------------

def _lookup(doc, path):
    if "+" in path:
        parts = [_lookup(doc, part) for part in path.split("+")]
        return sum(parts) if all(map(_is_num, parts)) else _MISSING
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def _paths(doc, path):
    """The concrete paths a row names in ``doc``: each ``*`` ranges over
    the keys present there.  A missing or empty level keeps its ``*``, so
    looking the path up reports it missing."""
    head, star, tail = path.partition("*")
    node = _lookup(doc, head.rstrip(".")) if star else None
    if not isinstance(node, dict) or not node:
        return [path]
    return [concrete for key in sorted(node, key=lambda k: (len(k), k))
            for concrete in _paths(doc, f"{head}{key}{tail}")]


def _row_failures(document, bench):
    for path, kind, *arg in GATES[bench]:
        holds, want = _FIXED.get(kind, _FIXED[NUM])
        arg = arg[0] if arg else None
        for name in _paths(document, path):
            value = _lookup(document, name)
            if not holds(value, arg):
                shown = "missing" if value is _MISSING else repr(value)
                yield f"{name} = {shown}, want {want.format(arg)}"


def _rule_failures(document, bench):
    for scope, name, holds in RULES[bench]:
        for where in _paths(document, scope):
            try:
                ok = holds(_lookup(document, where), document)
            except (LookupError, TypeError):
                ok = False
            if not ok:
                yield f"{where}: want {name}"


def _baseline_failures(document, baseline, bench, lines):
    for path, kind, *arg in GATES[bench]:
        if kind not in _AGAINST_BASELINE:
            continue
        holds, drift = _AGAINST_BASELINE[kind]
        factor = arg[0] if arg else None
        for name in _paths(baseline, path):
            now, then = _lookup(document, name), _lookup(baseline, name)
            if not _is_num(then):
                continue  # the baseline does not record this field
            if now is _MISSING:
                yield f"baseline field {name} missing from run"
                continue
            if kind != EXACT:
                lines.append(f"{name}: {now:.10g} (baseline {then:.10g})")
            if not holds(now, then, factor):
                yield (f"{name} = {now:.10g} {drift.format(factor)} baseline "
                       f"{then:.10g}")


def check(document: dict, baseline: dict | None = None) -> list[str]:
    """Walk ``document``'s gate rows, then its cross-field rules, then,
    given a ``baseline``, its baseline rows.  Returns the baseline report
    lines; raises :class:`GateFailure` listing every violated gate."""
    version = document.get("schema_version")
    if type(version) is not int or version != EXPECTED_SCHEMA_VERSION:
        raise GateFailure(f"schema_version {version!r} != "
                          f"{EXPECTED_SCHEMA_VERSION}")
    bench = document.get("bench")
    if bench not in GATES:
        raise GateFailure(f"unknown bench name {bench!r} "
                          f"(known: {sorted(GATES)})")
    failures = list(_row_failures(document, bench))
    if not failures:
        failures += _rule_failures(document, bench)
    lines: list[str] = []
    if baseline is not None and not failures:
        if "quick" in baseline and baseline["quick"] != document.get("quick"):
            lines.append("quick flag differs from baseline; "
                         "skipping baseline gates")
        else:
            failures += _baseline_failures(document, baseline, bench, lines)
    if failures:
        raise GateFailure("\n  ".join(f"{bench}: {f}" for f in failures))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", help="BENCH_*.json file to validate")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline JSON to compare the "
                             "exact/shrink/grow rows against")
    args = parser.parse_args(argv)

    with open(args.file) as fh:
        document = json.load(fh)
    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    try:
        lines = check(document, baseline)
    except GateFailure as failure:
        print(f"check_bench_json: FAIL: {failure}")
        return 1
    print(f"check_bench_json: schema OK "
          f"({document['bench']}, v{document['schema_version']})")
    for line in lines:
        print(f"check_bench_json: {line}")
    if baseline is not None:
        print("check_bench_json: baseline comparison OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
