"""Tests pinning the assembled VC population and the proof-layer table.

The digest pins every VC's ``category:name`` line *in order*, so any
refactor of how the layers are assembled must reproduce the population
exactly — same names, same categories, same order.
"""

import hashlib
from collections import Counter

import pytest

from repro.core.refine.proof import LAYERS, build_proof

ALL_ON = {"include_lemmas": True, "include_structural": True,
          "include_nr": True, "include_contract": True,
          "include_sched": True, "include_rg": True}

#: SHA-256 of the ordered ``category:name`` lines, all six layers on,
#: scenario_depth=2, scenario_cap=12 (the ``prove --quick`` population).
POPULATION_SHA256 = (
    "0b3f33e7a86645f3f671f5cbf5e266cbe20564ba5d86edac5faacf3e2dca2722")

CATEGORY_COUNTS = {
    "entry-lemmas": 34,
    "address-lemmas": 33,
    "marshal-lemmas": 13,
    "invariants": 60,
    "simulation": 24,
    "hardware-agreement": 12,
    "tlb": 9,
    "refinement": 2,
    "nr-linearizability": 10,
    "contract": 23,
    "scheduler": 14,
    "rg": 36,
}

#: VC count of each layer built alone (quick scenario population).
LAYER_COUNTS = {"lemmas": 80, "structural": 107, "nr": 10,
                "contract": 23, "sched": 14, "rg": 36}


@pytest.fixture(scope="module")
def full_engine():
    return build_proof(**ALL_ON, scenario_depth=2, scenario_cap=12)


def test_population_digest_is_pinned(full_engine):
    lines = [f"{vc.category}:{vc.name}" for vc in full_engine.vcs()]
    assert len(lines) == 270
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == POPULATION_SHA256


def test_per_category_counts(full_engine):
    counts = Counter(vc.category for vc in full_engine.vcs())
    assert dict(counts) == CATEGORY_COUNTS


def test_every_vc_sits_in_its_category_group(full_engine):
    assert [g.name for g in full_engine.groups] == list(CATEGORY_COUNTS)
    for group in full_engine.groups:
        assert all(vc.category == group.name for vc in group.vcs)


def test_layer_table_order_and_defaults():
    assert [layer.name for layer in LAYERS] == list(LAYER_COUNTS)
    assert {layer.name for layer in LAYERS if layer.on_by_default} == {
        "lemmas", "structural", "nr", "contract"}


def test_each_layer_alone_keeps_its_count():
    for name, expected in LAYER_COUNTS.items():
        only = {f"include_{layer.name}": layer.name == name
                for layer in LAYERS}
        engine = build_proof(**only, scenario_depth=2, scenario_cap=12)
        assert engine.vc_count == expected, name


def test_rebuild_spec_names_every_layer():
    builder, kwargs = build_proof(include_sched=True).rebuild_spec
    assert builder == "pt-refinement"
    assert kwargs == {
        "include_lemmas": True, "include_structural": True,
        "include_nr": True, "include_contract": True,
        "include_sched": True, "include_rg": False,
        "scenario_depth": 3, "scenario_cap": 60,
    }


def test_misspelt_layer_keyword_raises():
    with pytest.raises(TypeError, match="include_shed"):
        build_proof(include_shed=True)


def test_cli_rejects_unknown_layer_with_the_valid_names():
    from repro.__main__ import _build_engine

    with pytest.raises(SystemExit) as info:
        _build_engine("lemmas,bogus", quick=True)
    message = str(info.value)
    assert "bogus" in message
    for layer in LAYERS:
        assert layer.name in message
    assert "all" in message
