"""``python -m repro analyze`` — run the verification-aware static
analysis passes and gate CI on the result.

Exit status (stable, CI scripts switch on it): 0 when every finding is
suppressed or absent, 1 on any active finding, 2 when the run itself
could not proceed (unknown pass or mutant).  Findings stream through
:mod:`repro.obs` as ``analysis.finding`` events, so ``--trace
out.jsonl`` captures them alongside everything else;
``--format json`` renders one canonical, schema-validated payload
(:mod:`repro.analysis.jsonreport`).
"""

from __future__ import annotations

import json
import os
import pathlib

from repro import obs
from repro.analysis.findings import (AnalysisReport, Finding,
                                     apply_suppressions, dead_suppressions)
from repro.analysis.imports import check_layering, discover_sources
from repro.analysis.purity import check_purity
from repro.analysis.race import default_scripts, detect_races
from repro.obs.console import err, out

PASSES = ("layering", "purity", "rg", "lockorder", "deadsupp", "race")

#: Passes whose findings suppression comments can waive.  The dead-
#: suppression lint only runs when all of them did: a waiver for a
#: skipped pass is not dead, just unexercised.
_STATIC_PASSES = ("layering", "purity", "rg", "lockorder")

#: Seeds replayed by the race pass; quick mode keeps CI cheap.
RACE_SEEDS = tuple(range(16))
RACE_SEEDS_QUICK = tuple(range(4))


def repo_root() -> pathlib.Path:
    """The repository this installed package was loaded from."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parents[2]


def _load_layer_map(root: pathlib.Path):
    """A fixture tree carries its own map as layer_map.json:
    ``[[prefix, layer], ...]`` (optionally ``[prefix, layer, loc]``)."""
    path = root / "layer_map.json"
    if not path.exists():
        return None
    entries = json.loads(path.read_text(encoding="utf-8"))
    return [tuple(entry) for entry in entries]


def run_analysis(root=None, skip=(), seeds=None, max_steps: int = 200_000,
                 mutant: str | None = None) -> AnalysisReport:
    """Run the selected passes and return the combined report."""
    report = AnalysisReport()
    quick = os.environ.get("REPRO_BENCH_QUICK") == "1"

    # Resolve the mutant before any pass runs: an unknown name is an
    # error whatever --skip says.
    kind = target = None
    if mutant is not None:
        from repro.analysis.mutants import MUTANTS

        if mutant not in MUTANTS:
            raise SystemExit(f"unknown --mutant {mutant!r}; choose from "
                             f"{sorted(MUTANTS)}")
        kind, target = MUTANTS[mutant].kind, MUTANTS[mutant].target

    custom_root = root is not None
    root = pathlib.Path(root) if custom_root else repo_root()
    layer_map = _load_layer_map(root) if custom_root else None
    sources = discover_sources(root, None if layer_map else "src/repro")
    if kind == "rg":
        from repro.analysis.mutants import apply_rg_mutant

        sources = apply_rg_mutant(sources, mutant)

    if "layering" not in skip:
        findings, stats = check_layering(sources, layer_map)
        report.extend(findings)
        report.stats["layering"] = stats

    if "purity" not in skip:
        findings, stats = check_purity(sources, layer_map)
        report.extend(findings)
        report.stats["purity"] = stats

    if "rg" not in skip:
        from repro.analysis.rg import check_interference

        findings, stats = check_interference(sources)
        report.extend(findings)
        if kind == "rg":
            stats["target"] = f"mutant:{mutant}"
        report.stats["rg"] = stats

    if "lockorder" not in skip:
        from repro.analysis.lockorder import check_lock_order

        findings, stats = check_lock_order(sources)
        report.extend(findings)
        report.stats["lockorder"] = stats

    apply_suppressions(report.findings, sources)

    if "deadsupp" not in skip and not set(_STATIC_PASSES) & set(skip) \
            and kind != "rg":
        findings = dead_suppressions(report.findings, sources)
        report.extend(findings)
        report.stats["deadsupp"] = {"dead": len(findings)}

    if "race" not in skip:
        if seeds is None:
            seeds = RACE_SEEDS_QUICK if quick else RACE_SEEDS
        # No mutant: replay both real protocols.  An nr or sched mutant
        # replaces its protocol; an rg mutant is not a protocol at all.
        for protocol in ("nr", "sched"):
            if kind not in (None, protocol):
                continue
            stage, real, label, path, mutant_path = _PROTOCOLS[protocol]
            races = _replay(protocol, target, seeds, max_steps)
            for race in races.races:
                report.findings.append(Finding(
                    rule="race.unordered-access",
                    path=mutant_path if mutant else path, line=1,
                    message=f"[{f'mutant:{mutant}' if mutant else label}] "
                            f"{race.render()}"))
            report.stats[stage] = {
                "schedules": races.schedules,
                "steps": races.steps,
                "accesses": races.accesses,
                "races": len(races.races),
                "target": mutant or real,
            }
    return report


#: race-replayed protocol -> (stats stage, real-protocol target, finding
#: label, real protocol's path, its mutants' path).
_PROTOCOLS = {
    "nr": ("race", "nr-protocol", "repro.nr protocol",
           "src/repro/nr/core.py", "src/repro/analysis/mutants.py"),
    "sched": ("race_sched", "sched-protocol", "repro.nros.sched protocol",
              "src/repro/nros/sched/smp.py",
              "src/repro/analysis/sched_race.py"),
}


def _replay(protocol: str, mutant_cls, seeds, max_steps: int):
    """Race-replay the real `protocol`, or `mutant_cls` in its place."""
    if protocol == "sched":
        from repro.analysis.sched_race import detect_sched_races

        return detect_sched_races(seeds, **(
            {"protocol_cls": mutant_cls} if mutant_cls else {}))
    nr_factory = None
    if mutant_cls is not None:
        from repro.nr.datastructures import KvStore

        nr_factory = lambda: mutant_cls(KvStore, num_nodes=2)  # noqa: E731
    return detect_races(seeds, nr_factory=nr_factory,
                        scripts=default_scripts(), max_steps=max_steps)


def _emit_events(report: AnalysisReport) -> None:
    bus = obs.bus()
    for finding in report.findings:
        bus.emit("analysis.finding", rule=finding.rule, file=finding.path,
                 line=finding.line, message=finding.message,
                 suppressed=finding.suppressed)
    for name, stats in report.stats.items():
        bus.emit("analysis.pass", stage=name, **{
            k: v for k, v in stats.items()
            if isinstance(v, (str, int, float, bool))})
    bus.emit("analysis.summary", violations=len(report.active),
             suppressed=len(report.suppressed))


def main(args) -> int:
    from repro.analysis.jsonreport import (EXIT_CLEAN, EXIT_ERROR,
                                           EXIT_FINDINGS, render_json)

    as_json = getattr(args, "format", "text") == "json"
    if args.list_rules:
        out("analysis rules:")
        for rule, text in sorted(RULES.items()):
            out(f"  {rule:<28} {text}")
        return 0

    skip = {name for name in (args.skip or "").split(",") if name}
    unknown = skip - set(PASSES)
    if unknown:
        err(f"unknown --skip {sorted(unknown)}; choose from "
            f"{sorted(PASSES)}")
        return EXIT_ERROR

    seeds = None
    if args.seed is not None:
        seeds = [args.seed]

    try:
        report = run_analysis(root=args.root, skip=skip, seeds=seeds,
                              max_steps=args.max_steps, mutant=args.mutant)
    except SystemExit as exc:          # unknown mutant and friends
        err(str(exc))
        return EXIT_ERROR
    _emit_events(report)

    if as_json:
        out(render_json(report))
        return EXIT_CLEAN if report.clean else EXIT_FINDINGS

    for finding in report.findings:
        (out if finding.suppressed else err)("  " + finding.render())
    for line in report.summary_lines():
        out("analyze: " + line)

    return EXIT_CLEAN if report.clean else EXIT_FINDINGS


#: rule id -> one-line description (for --list-rules and the README).
RULES = {
    "layering.spec-imports-exec":
        "a spec module imports the implementation it specifies",
    "layering.exec-imports-proof":
        "an exec module imports spec/proof at module level "
        "(breaks ghost-code erasure)",
    "layering.forbidden-import":
        "an import the layer map's allowed-imports matrix forbids",
    "ghost-import":
        "deferred spec/proof import from exec code without an explicit "
        "'# repro: allow(ghost-import)' marker",
    "erasure.exec-reaches-proof":
        "an exec module reaches the proof layer transitively at import "
        "time",
    "erasure.spec-reaches-exec":
        "a spec module reaches the implementation transitively at "
        "import time",
    "layers.unmapped":
        "a file the layer map does not classify",
    "purity.mutation":
        "a contract predicate or spec function mutates observable state",
    "purity.io":
        "a contract predicate or spec function performs I/O",
    "purity.nondeterminism":
        "a contract predicate or spec function reads a nondeterministic "
        "source (unseeded random, wall clock)",
    "console.bare-print":
        "bare print() outside repro.obs.console",
    "race.unordered-access":
        "two conflicting protocol step accesses (NR or SMP runqueue) "
        "with no happens-before edge and no common lock",
    "rg.unguarded-write":
        "a lock-guarded atomic action writes shared state outside its "
        "'with self.<lock>:' bracket",
    "rg.unguarded-read":
        "a lock-guarded atomic action reads shared state outside its "
        "lock bracket",
    "rg.undeclared-write":
        "an action writes shared state its declared guarantee does not "
        "cover",
    "rg.undeclared-read":
        "an action reads shared state outside its declared footprint",
    "rg.unspecified-action":
        "an undeclared method mutates shared state (interference the "
        "rely never admitted)",
    "rg.missing-action":
        "a declared atomic action has no matching method (the rg spec "
        "rotted)",
    "rg.nr-bypass":
        "code reaches through .replicas around the NR log outside the "
        "sanctioned accessors",
    "lockorder.cycle":
        "the static lock acquisition graph has a cycle (a deadlock-"
        "capable lock order)",
    "lockorder.unordered-same-class":
        "two locks of the same class nested without a sanctioned "
        "ordering (sorted acquisition)",
    "suppression.dead":
        "a '# repro: allow(rule)' comment that no longer suppresses "
        "any finding",
    "parse-error":
        "a source file failed to parse",
}
