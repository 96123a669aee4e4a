"""Pinned prover behaviour: per-VC verdicts and solver counters of a real
population, identical on the inline and process lanes, and the exact
summary of the prover fault campaign.

A change to the discharge path that moves any verdict, counterexample or
deterministic solver counter changes the digest below.  The structural,
scheduler and rely-guarantee population and the structural mutants'
failures are pinned too, so a faster page-table walk or state-space
search must find exactly the same proofs and first counterexamples."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.pt import defs, entry
from repro.core.pt.impl import PageTable
from repro.core.refine.proof import LAYERS, build_proof
from repro.faults.campaign import run_campaign, summary_text
from repro.prover import ProverConfig, prove_all
from repro.verif.vc import VCStatus

#: SHA-256 over each VC's ``(key(), sorted solver_stats)``, in report
#: order, for the `lemmas,nr,contract` population (113 VCs).
POPULATION_DIGEST = \
    "6e77b5d2e55a317cd4c56abc3340e455f0d643def559451db174136862e25faf"

#: The same digest for the `structural,sched,rg` population (157 VCs).
FINITE_MODEL_DIGEST = \
    "ee167e94ea29f38d8a5a7fb878328614c8ef43fce4fac15f1aa3c8059f611478"

PROVER_CAMPAIGN_SUMMARY = """\
campaign prover (seed 1): 8 injections, 0 violations
  prover.budget    injected    1  survived    0  degraded    1  failed    0
  prover.cache     injected    4  survived    4  degraded    0  failed    0
  prover.worker    injected    3  survived    0  degraded    3  failed    0
  note: prover.worker: 3 worker crashes absorbed as ERROR verdicts; 12 VCs still proved
  note: prover.cache: 3 poisoned entries + corrupt timings treated as cold misses and re-proved
  note: prover.budget: 1 VCs surfaced TIMEOUT under a hard 1-conflict budget ladder; none mis-verdicted
total: 8 injections, 0 violations"""


def _population(selected=frozenset({"lemmas", "nr", "contract"})):
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


def test_finite_model_population_digest():
    report = prove_all(_population({"structural", "sched", "rg"}), jobs=1,
                       config=ProverConfig(use_cache=False))
    assert report.total == 157 and report.all_proved
    assert _digest(report) == FINITE_MODEL_DIGEST


def _skip_gc(monkeypatch):
    monkeypatch.setattr(PageTable, "_collect_empty_tables",
                        lambda self, path: None)


def _wrong_pd_shift(monkeypatch):
    original = defs.vaddr_index

    def broken(vaddr, level):
        if level == 2:
            return (vaddr >> 20) & 0x1FF
        return original(vaddr, level)

    monkeypatch.setattr("repro.core.pt.impl.defs.vaddr_index", broken)


def _dropped_nx(monkeypatch):
    original = entry.encode_page

    def broken(frame_paddr, flags, level):
        return original(frame_paddr, flags, level) & ~(1 << defs.BIT_NX)

    monkeypatch.setattr("repro.core.pt.impl.entry.encode_page", broken)


_GC_TRACE = "'map(0x1000,0x100000,SIZE_4K)', 'unmap(0x1000)'"
_PD_FAULT = "TranslationFault: page fault at {}: not present at PD"
_PD_WALK = ("('map(0x400000,0x400000,SIZE_2M)', 'walk faulted on mapped "
            "address', 4194304, 4194304)")
_NX = "execute of NX page did not fault"

#: The structural mutants of `TestMutations`: each one's scenario cap and
#: the `key()` of every VC it makes fail, in report order.
STRUCTURAL_MUTANTS = {
    "skipped-gc": (_skip_gc, 10, [
        ("inv_no_empty_intermediate_preserved_by_unmap", "failed",
         "invariants", f"({_GC_TRACE})", f"({_GC_TRACE})"),
        ("refinement_trace_state", "failed", "refinement",
         "('step 19', 'map(0x0,0x200000,SIZE_2M)', 'impl_ok=False "
         "spec_ok=True')",
         "('step 19', 'map(0x0,0x200000,SIZE_2M)', 'impl_ok=False "
         "spec_ok=True')"),
        ("refinement_trace_observable", "failed", "refinement",
         "('step 15', 'map(0x0,0x200000,SIZE_2M)', 'impl_ok=False "
         "spec_ok=True')",
         "('step 15', 'map(0x0,0x200000,SIZE_2M)', 'impl_ok=False "
         "spec_ok=True')"),
    ]),
    "wrong-pd-shift": (_wrong_pd_shift, 8, [
        ("hw_walk_agrees_size_2m", "failed", "hardware-agreement",
         _PD_WALK, _PD_WALK),
        ("hw_walk_agrees_unmapped", "failed", "hardware-agreement",
         _PD_WALK, _PD_WALK),
        ("hw_memops_store_then_load", "error", "hardware-agreement",
         _PD_FAULT.format("0x400018"), "None"),
        ("hw_resolve_matches_walk_2m", "error", "hardware-agreement",
         _PD_FAULT.format("0x400000"), "None"),
        ("tlb_fill_consistent", "error", "tlb",
         _PD_FAULT.format("0x400000"), "None"),
        ("tlb_flush_consistent", "error", "tlb",
         _PD_FAULT.format("0x400000"), "None"),
    ]),
    "dropped-nx": (_dropped_nx, 10, [
        ("sim_map_4k_success_commutes", "failed", "simulation",
         "('<empty>', 'map(0x1000,0x100000,SIZE_4K)', 'diagram mismatch')",
         "('<empty>', 'map(0x1000,0x100000,SIZE_4K)', 'diagram mismatch')"),
        ("sim_map_2m_success_commutes", "failed", "simulation",
         "('<empty>', 'map(0x400000,0x400000,SIZE_2M)', 'diagram "
         "mismatch')",
         "('<empty>', 'map(0x400000,0x400000,SIZE_2M)', 'diagram "
         "mismatch')"),
        ("hw_permission_execute_nx", "failed", "hardware-agreement",
         _NX, repr(_NX)),
        ("refinement_trace_state", "failed", "refinement",
         "('step 2', 'map(0x8000000000,0x100000,SIZE_4K)', 'abstraction "
         "diverged')",
         "('step 2', 'map(0x8000000000,0x100000,SIZE_4K)', 'abstraction "
         "diverged')"),
    ]),
}


@pytest.mark.parametrize("mutant", sorted(STRUCTURAL_MUTANTS))
def test_structural_mutant_failures_pinned(mutant, monkeypatch):
    patch, cap, expected = STRUCTURAL_MUTANTS[mutant]
    patch(monkeypatch)
    engine = build_proof(include_lemmas=False, include_nr=False,
                         include_contract=False, scenario_depth=2,
                         scenario_cap=cap)
    failures = [result.key() for result in engine.run().results
                if result.status is not VCStatus.PROVED]
    assert failures == expected
