"""Pinned prover behaviour: per-VC verdicts and solver counters of a real
population, identical on the inline and process lanes, and the exact
summary of the prover fault campaign.

A change to the discharge path that moves any verdict, counterexample or
deterministic solver counter changes the digest below."""

from __future__ import annotations

import hashlib

from repro.core.refine.proof import LAYERS, build_proof
from repro.faults.campaign import run_campaign, summary_text
from repro.prover import ProverConfig, prove_all

#: SHA-256 over each VC's ``(key(), sorted solver_stats)``, in report
#: order, for the `lemmas,nr,contract` population (113 VCs).
POPULATION_DIGEST = \
    "6e77b5d2e55a317cd4c56abc3340e455f0d643def559451db174136862e25faf"

PROVER_CAMPAIGN_SUMMARY = """\
campaign prover (seed 1): 8 injections, 0 violations
  prover.budget    injected    1  survived    0  degraded    1  failed    0
  prover.cache     injected    4  survived    4  degraded    0  failed    0
  prover.worker    injected    3  survived    0  degraded    3  failed    0
  note: prover.worker: 3 worker crashes absorbed as ERROR verdicts; 12 VCs still proved
  note: prover.cache: 3 poisoned entries + corrupt timings treated as cold misses and re-proved
  note: prover.budget: 1 VCs surfaced TIMEOUT under a hard 1-conflict budget ladder; none mis-verdicted
total: 8 injections, 0 violations"""


def _population():
    selected = {"lemmas", "nr", "contract"}
    return build_proof(scenario_depth=2, scenario_cap=12,
                       **{f"include_{layer.name}": layer.name in selected
                          for layer in LAYERS})


def _digest(report) -> str:
    h = hashlib.sha256()
    for result in report.results:
        item = (result.key(), sorted(result.solver_stats.items()))
        h.update(repr(item).encode() + b"\n")
    return h.hexdigest()


def test_population_digest_same_on_every_lane():
    digests = {}
    for jobs in (1, 2):
        report = prove_all(_population(), jobs=jobs,
                           config=ProverConfig(use_cache=False))
        assert report.total == 113 and report.all_proved
        digests[jobs] = _digest(report)
    assert digests == {1: POPULATION_DIGEST, 2: POPULATION_DIGEST}


def test_prover_campaign_summary_pinned():
    assert summary_text(run_campaign("prover", 1)) == PROVER_CAMPAIGN_SUMMARY
