"""Tests for the repro.analysis static-analysis passes: the layer map,
the layering/erasure checker, the purity lint, the suppression syntax,
and the seeded violation fixture the checker must flag."""

import pathlib
import subprocess
import sys

from repro.analysis.cli import PASSES, RULES, repo_root, run_analysis
from repro.analysis.findings import (Finding, allowed_rules,
                                     apply_suppressions, dead_suppressions)
from repro.analysis.imports import discover_sources
from repro.analysis.layers import (
    LAYER_MAP,
    classify_layer,
    loc_classification,
    loc_kind,
)
from repro.analysis.purity import check_purity
from repro.metrics import loc

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "layering_bad"


# -- the layer map ------------------------------------------------------------------


def test_every_file_under_src_repro_is_classified():
    """Satellite guarantee: no file can silently fall outside the
    spec/proof/exec/other boundary (and hence out of the ratio)."""
    sources = discover_sources(repo_root())
    assert sources, "discover_sources found nothing under src/repro"
    unmapped = sorted(path for path in sources
                      if classify_layer(path) is None)
    assert not unmapped, (
        f"{len(unmapped)} file(s) under src/repro missing from "
        f"repro.analysis.layers.LAYER_MAP — add an entry (or a "
        f"directory prefix) for each of: " + ", ".join(unmapped))


def test_discover_sources_works_under_a_hidden_directory(tmp_path):
    """Only hidden components *below* the root are skipped: a checkout
    under e.g. ``~/.work/repo`` is analyzed like any other."""
    root = tmp_path / ".hidden" / "repo"
    package = root / "src" / "repro"
    (package / ".cache").mkdir(parents=True)
    (package / "mod.py").write_text("x = 1\n", encoding="utf-8")
    (package / ".cache" / "stale.py").write_text("y = 2\n",
                                                 encoding="utf-8")
    assert discover_sources(root) == {"src/repro/mod.py": "x = 1\n"}


def test_prefix_match_respects_path_components():
    layer_map = [("foo/bar", "spec"), ("foo", "exec")]
    assert classify_layer("foo/bar/mod.py", layer_map) == "spec"
    assert classify_layer("foo/barbaz.py", layer_map) == "exec"
    assert classify_layer("foo/bar", layer_map) == "spec"


def test_layer_map_pins_the_interesting_boundaries():
    assert classify_layer("src/repro/core/spec/highlevel.py") == "spec"
    assert classify_layer("src/repro/core/pt/impl.py") == "exec"
    assert classify_layer("src/repro/nr/core.py") == "exec"
    assert classify_layer("src/repro/nr/linearizability.py") == "proof"
    assert classify_layer("src/repro/nros/kernel.py") == "exec"
    assert classify_layer("src/repro/nros/sched/smp.py") == "exec"
    assert classify_layer("src/repro/verif/contracts.py") == "proof"
    assert classify_layer("src/repro/verif/schedspec.py") == "spec"
    assert classify_layer("src/repro/verif/schedproof.py") == "proof"
    assert classify_layer("src/repro/verif/rgspec.py") == "spec"
    assert classify_layer("src/repro/verif/rgproof.py") == "proof"
    assert classify_layer("src/repro/analysis/sched_race.py") == "other"
    assert classify_layer("src/repro/analysis/rg.py") == "other"
    assert classify_layer("src/repro/analysis/lockorder.py") == "other"
    assert classify_layer("src/repro/immutable.py") == "other"


def test_loc_classification_is_derived_from_layer_map():
    assert loc.CLASSIFICATION == loc_classification()
    assert len(loc.CLASSIFICATION) == len(LAYER_MAP)
    # The per-entry overrides the ratio depends on:
    assert loc_kind("src/repro/verif/linear.py") == "proof"
    assert loc_kind("src/repro/prover/scheduler.py") == "other"
    assert loc_kind("src/repro/core/pt/defs.py") == "code"
    assert loc_kind("src/repro/immutable.py") == "code"


# -- suppressions -------------------------------------------------------------------


def test_allow_comment_applies_to_own_and_next_line():
    source = (
        "x = 1  # repro: allow(rule-a)\n"
        "# repro: allow(rule-b, rule-c)\n"
        "y = 2\n"
    )
    allowed = allowed_rules(source)
    assert allowed[1] == {"rule-a"}
    assert allowed[2] == {"rule-b", "rule-c"}
    assert allowed[3] == {"rule-b", "rule-c"}


def test_apply_suppressions_marks_matching_rule_only():
    source = "bad_line()  # repro: allow(rule-a)\n"
    findings = [
        Finding(rule="rule-a", path="m.py", line=1, message="x"),
        Finding(rule="rule-b", path="m.py", line=1, message="x"),
    ]
    apply_suppressions(findings, {"m.py": source})
    assert findings[0].suppressed
    assert not findings[1].suppressed


# -- the purity lint ----------------------------------------------------------------


def _purity(source):
    findings, _ = check_purity({"m.py": source}, layer_map=[("m.py", "spec")])
    return findings


def test_purity_flags_discarded_mutator_call():
    findings = _purity("def pred(state):\n    state.items.append(1)\n")
    assert [f.rule for f in findings] == ["purity.mutation"]


def test_purity_allows_persistent_container_calls():
    # FrozenMap.remove returns the new map; a consumed result is not a
    # mutation (list.remove and friends return None).
    findings = _purity("def pred(state):\n"
                       "    return state.files.remove(3)\n")
    assert findings == []


def test_purity_allows_local_mutation():
    findings = _purity("def pred(state):\n"
                       "    acc = []\n"
                       "    acc.append(state)\n"
                       "    return acc\n")
    assert findings == []


def test_purity_flags_wall_clock_and_unseeded_random():
    findings = _purity("import time, random\n"
                       "def pred(state):\n"
                       "    return time.time() + random.random()\n")
    assert sorted(f.rule for f in findings) == [
        "purity.nondeterminism", "purity.nondeterminism"]


def test_purity_allows_seeded_random():
    findings = _purity("import random\n"
                       "def pred(state):\n"
                       "    return random.Random(7).random()\n")
    assert [f.rule for f in findings if f.rule != "purity.nondeterminism"] \
        == [f.rule for f in findings]
    # random.Random(7) is seeded; the .random() call on the instance has
    # a local root, so nothing fires at all.
    assert findings == []


# -- the clean tree and the fixture -------------------------------------------------


def test_clean_tree_passes_layering_and_purity():
    report = run_analysis(skip={"race"})
    assert report.clean, [f.render() for f in report.active]
    # The sanctioned ghost imports are reported, as suppressed findings.
    assert {f.rule for f in report.suppressed} == {"ghost-import"}


def test_fixture_fires_every_static_rule():
    report = run_analysis(root=FIXTURE, skip={"race"})
    assert not report.clean
    fired = {f.rule for f in report.active}
    assert fired == {
        "layering.spec-imports-exec",
        "layering.exec-imports-proof",
        "ghost-import",
        "erasure.exec-reaches-proof",
        "layers.unmapped",
        "purity.mutation",
        "purity.nondeterminism",
        "console.bare-print",
        "suppression.dead",
    }
    assert fired <= set(RULES)
    # tooling.py carries one sanctioned print; suppression is honoured
    # without hiding the finding.
    assert [f.rule for f in report.suppressed] == ["console.bare-print"]


def test_fixture_transitive_chain_names_the_leak():
    report = run_analysis(root=FIXTURE, skip={"race"})
    chains = [f for f in report.active
              if f.rule == "erasure.exec-reaches-proof"]
    assert len(chains) == 1
    assert "runtime.py -> helper.py -> proof_lemmas.py" in chains[0].message


# -- the dead-suppression lint ------------------------------------------------------


def test_dead_suppression_flags_stale_allow_only():
    source = (
        "live()  # repro: allow(rule-a)\n"
        "clean()  # repro: allow(rule-b)\n"
    )
    findings = [Finding(rule="rule-a", path="m.py", line=1, message="x")]
    apply_suppressions(findings, {"m.py": source})
    dead = dead_suppressions(findings, {"m.py": source})
    assert [(f.rule, f.line) for f in dead] == [("suppression.dead", 2)]
    assert "allow(rule-b)" in dead[0].message


def test_dead_suppression_covers_next_line_of_standalone_comment():
    source = "# repro: allow(rule-a)\nbad()\n"
    findings = [Finding(rule="rule-a", path="m.py", line=2, message="x")]
    apply_suppressions(findings, {"m.py": source})
    assert dead_suppressions(findings, {"m.py": source}) == []


def test_dead_suppression_ignores_docstring_mentions():
    source = '"""Docs talking about # repro: allow(rule-a) syntax."""\n'
    assert dead_suppressions([], {"m.py": source}) == []


def test_fixture_dead_suppression_is_located():
    report = run_analysis(root=FIXTURE, skip={"race"})
    dead = [f for f in report.active if f.rule == "suppression.dead"]
    assert len(dead) == 1
    assert dead[0].path == "tooling.py"
    assert "console.bare-print" in dead[0].message


def test_clean_tree_has_no_dead_suppressions():
    report = run_analysis(skip={"race"})
    assert [f for f in report.findings
            if f.rule == "suppression.dead"] == []


# -- the json reporter --------------------------------------------------------------


def _run_analyze_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", "analyze", *argv],
        capture_output=True, text=True, cwd=repo_root(),
        env={"PYTHONPATH": str(repo_root() / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_json_format_is_byte_deterministic_at_fixed_seed():
    """Satellite guarantee: same seed, same bytes — across the full
    rule set including the rg, lockorder, and deadsupp passes."""
    argv = ("--format", "json", "--seed", "3", "--max-steps", "20000")
    first = _run_analyze_cli(*argv)
    second = _run_analyze_cli(*argv)
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    import json as json_mod

    payload = json_mod.loads(first.stdout)
    assert payload["schema"] == "repro.analysis/v1"
    assert payload["clean"] is True
    names = {record["name"] for record in payload["records"]}
    assert names == {"analysis.finding", "analysis.pass",
                     "analysis.summary"}
    stages = {record["stage"] for record in payload["records"]
              if record["name"] == "analysis.pass"}
    assert {"layering", "purity", "rg", "lockorder", "deadsupp",
            "race", "race_sched"} <= stages


def test_json_format_validates_against_obs_schema():
    from repro.obs.events import validate_record

    proc = _run_analyze_cli("--format", "json", "--root", str(FIXTURE),
                            "--skip", "race")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    import json as json_mod

    payload = json_mod.loads(proc.stdout)
    assert payload["clean"] is False
    for record in payload["records"]:
        assert validate_record(record) == []
    rules = {record["rule"] for record in payload["records"]
             if record["name"] == "analysis.finding"}
    assert "suppression.dead" in rules


def test_cli_stable_exit_codes():
    assert _run_analyze_cli("--skip", "race").returncode == 0
    assert _run_analyze_cli("--root", str(FIXTURE),
                            "--skip", "race").returncode == 1
    assert _run_analyze_cli("--skip", "bogus").returncode == 2
    assert _run_analyze_cli("--mutant", "no-such-mutant").returncode == 2


def test_every_registered_mutant_is_flagged():
    """The single registry drives analyze: each mutant, whatever its
    kind, reaches the pass that must flag it."""
    from repro.analysis.mutants import MUTANTS

    for name in MUTANTS:
        report = run_analysis(skip={"layering", "purity", "deadsupp"},
                              seeds=[0], mutant=name)
        assert not report.clean, f"mutant {name} was not flagged"
    assert {m.kind for m in MUTANTS.values()} == {"nr", "sched", "rg"}


def test_unknown_mutant_exits_2_whatever_is_skipped():
    """The mutant is looked up before any pass runs: skipping the passes
    that would use it must not turn a misspelt name into a clean run."""
    for skip in ("layering,purity,race,deadsupp,lockorder",
                 ",".join(PASSES)):
        proc = _run_analyze_cli("--skip", skip, "--mutant",
                                "no-such-mutant")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "no-such-mutant" in proc.stderr


def test_cli_exits_nonzero_on_fixture():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze",
         "--root", str(FIXTURE), "--skip", "race"],
        capture_output=True, text=True, cwd=repo_root(),
        env={"PYTHONPATH": str(repo_root() / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "layering.spec-imports-exec" in proc.stdout + proc.stderr


def test_cli_list_rules_covers_passes():
    assert set(PASSES) == {"layering", "purity", "rg", "lockorder",
                           "deadsupp", "race"}
    for rule, text in RULES.items():
        assert rule and text
    for prefix in ("rg.", "lockorder.", "suppression."):
        assert any(rule.startswith(prefix) for rule in RULES)
