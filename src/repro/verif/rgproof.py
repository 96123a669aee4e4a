"""The ``rg`` verification conditions — rely-guarantee stability for
the concurrent memory-management layer, discharged through the prover.

Three families behind ``python -m repro prove --layers rg``:

* **stability obligations** — bounded exploration covers the *entire*
  reachable space of each finite interference model in
  :mod:`repro.verif.rgspec` (677 buddy-allocator states, 201 vspace
  states; hitting the cap is itself a regression signal), then one VC
  per (invariant × interfering action) pair checks the invariant is
  inductive under a sub-machine containing *only* that action.  Because
  every thread's guarantee is drawn from the same action set, that is
  exactly "I is stable under the rely": any other thread firing the
  action from any reachable state preserves I.  Vacuity VCs hand-build
  one broken state per invariant and demand each violates its own
  invariant.  All three come from the shared
  :class:`~repro.verif.explore.FiniteModel` scaffold;

* **conformance obligations** — seeded alloc/free traces drive the real
  :class:`~repro.nros.pmem.BuddyAllocator` and check
  :meth:`check_integrity`, the redundant frame counter, eager
  coalescing, and that every action takes the declared lock exactly
  once; the real :class:`~repro.nros.vspace.VSpace` is checked to leave
  no stale TLB entry after (batched) unmap — the model's atomic-unmap
  guarantee, replayed against the implementation;

* **static-discharge obligations** — the interference checker
  (:mod:`repro.analysis.rg`) and the lock-order pass
  (:mod:`repro.analysis.lockorder`) must come back clean over the real
  tree.  These discharge the hypothesis the stability VCs lean on: the
  implementation's shared mutations happen only inside the declared
  atomic actions, and the lock acquisition graph is acyclic.

This module is proof-layer code: it may use seeded randomness, walk the
source tree, and drive the implementation; the spec it checks stays
pure.
"""

from __future__ import annotations

import pathlib
import random

from repro.verif import rgspec as rs
from repro.verif.explore import FiniteModel
from repro.verif.vc import VC

#: Exploration cap — comfortably above the measured reachable-space
#: sizes (677 states for the buddy model, 201 for the vspace model), so
#: hitting it means the model stopped being finite and the coverage
#: claim below is void.
MAX_STATES = 5_000

_TRACE_SEEDS = (1, 2, 3)
_TRACE_OPS = 200


# -- vacuity: hand-broken states must be flagged ------------------------------


def _broken_pmem_states():
    leaked = rs.PmemState(
        free=((),) * (rs.PMEM_MAX_ORDER + 1),
        allocated=((0, 2),), free_frames=0)          # frames 4..7 leaked
    misaligned = rs.PmemState(
        free=((), (1,), (), (0,)), allocated=(), free_frames=10)
    uncoalesced = rs.PmemState(
        free=((0, 1), (), (), ()), allocated=((2, 1), (4, 2)),
        free_frames=2)                               # buddies 0,1 both free
    miscounted = rs.PmemState(
        free=rs.pmem_init().free, allocated=(),
        free_frames=rs.PMEM_FRAMES - 1)
    return {
        "pmem_coverage": leaked,
        "pmem_aligned": misaligned,
        "pmem_coalesced": uncoalesced,
        "pmem_free_count": miscounted,
    }


def _broken_vspace_states():
    nothing = ((),) * rs.VS_REPLICAS
    stale_tlb = rs.VsState(
        base=((0, 0),), log=(), applied=(0,) * rs.VS_REPLICAS,
        tlbs=(((0, 1),),) + ((),) * (rs.VS_REPLICAS - 1))
    # replica 1 still sees a mapping the log has since unmapped
    zombie = rs.VsState(
        base=((0, 0),), log=(("unmap", 0),),
        applied=(1,) + (0,) * (rs.VS_REPLICAS - 1), tlbs=nothing)
    doubled = rs.VsState(
        base=((0, 0), (1, 0)), log=(), applied=(0,) * rs.VS_REPLICAS,
        tlbs=nothing)
    runaway = rs.VsState(
        base=(), log=(("map", 0, 0),) * (rs.VS_MAX_LAG + 1),
        applied=(0,) * rs.VS_REPLICAS, tlbs=nothing)
    return {
        "vs_tlb_current": stale_tlb,
        "vs_replica_monotone": zombie,
        "vs_frames_unique": doubled,
        "vs_lag_bounded": runaway,
    }


#: model name -> its hand-broken states, one per invariant.
_BROKEN = {"pmem": _broken_pmem_states, "vspace": _broken_vspace_states}


# -- conformance: the real allocator and vspace under seeded traces -----------


def _pmem_audit(alloc) -> tuple | None:
    """The runtime mirror of the model invariants."""
    problem = alloc.check_integrity()
    if problem is not None:
        return ("check_integrity", problem)
    from repro.core.pt import defs

    frames = sum(count << order
                 for order, count in alloc.free_blocks().items())
    if alloc.stats.free_frames != frames:
        return ("free_frames counter drifted",
                alloc.stats.free_frames, frames)
    for order, blocks in enumerate(alloc._free[:-1]):
        size = defs.PAGE_SIZE << order
        if any((block ^ size) in blocks for block in blocks):
            return ("two free buddies left unmerged", order)
    if alloc._lock.held:
        return ("pmem.alloc still held outside an action",)
    return None


def _impl_pmem_trace_vc() -> VC:
    def check():
        from repro.hw.mem import PhysicalMemory
        from repro.nros.pmem import BuddyAllocator, OutOfMemory

        for seed in _TRACE_SEEDS:
            rng = random.Random(seed)
            mem = PhysicalMemory(2 * 1024 * 1024)
            alloc = BuddyAllocator(mem)
            live: list[int] = []
            for step in range(_TRACE_OPS):
                before = alloc._lock.acquisitions
                if live and rng.random() < 0.45:
                    alloc.free_block(live.pop(rng.randrange(len(live))))
                else:
                    try:
                        live.append(alloc.alloc_block(rng.randint(0, 4)))
                    except OutOfMemory:
                        pass
                if alloc._lock.acquisitions != before + 1:
                    return (f"seed={seed}", f"step={step}",
                            "action did not take pmem.alloc exactly once")
                problem = _pmem_audit(alloc)
                if problem is not None:
                    return (f"seed={seed}", f"step={step}") + problem
            for paddr in live:
                alloc.free_block(paddr)
            problem = _pmem_audit(alloc)
            if problem is not None:
                return (f"seed={seed}", "after drain") + problem
        return None

    return VC(
        name="rg-impl-pmem-trace",
        category="rg",
        check=check,
        description="seeded alloc/free traces on the real buddy "
                    "allocator preserve the model invariants (integrity, "
                    "frame accounting, eager coalescing) and every "
                    "action takes the declared lock exactly once",
    )


def _impl_vspace_shootdown_vc() -> VC:
    def check():
        from repro.core.pt.defs import Flags, PageSize
        from repro.hw.mem import PhysicalMemory
        from repro.nros.pmem import BuddyAllocator
        from repro.nros.vspace import VSpace

        mb = 1024 * 1024
        mem = PhysicalMemory(16 * mb)
        alloc = BuddyAllocator(mem, start=8 * mb)
        vspace = VSpace(mem, alloc, num_nodes=2)
        for core in range(4):
            vspace.attach_core(core, core % 2)
        vas = [0x1000 * (i + 1) for i in range(6)]
        for i, va in enumerate(vas):
            vspace.map(va, 0x10_0000 + 0x1000 * i, PageSize.SIZE_4K,
                       Flags.user_rw(), core=0)
        for core in range(4):
            for va in vas:
                vspace.translate(core, va)   # fill every TLB
        vspace.unmap(vas[0], core=1)
        vspace.unmap_batch(vas[1:4], core=2)
        for core, tlb in vspace._tlbs.items():
            for va in vas[:4]:
                if tlb.lookup(va) is not None:
                    return ("stale TLB entry after unmap",
                            f"core={core}", hex(va))
        for core in range(4):
            for va in vas[4:]:
                vspace.translate(core, va)   # survivors still translate
        return None

    return VC(
        name="rg-impl-vspace-shootdown",
        category="rg",
        check=check,
        description="after unmap / unmap_batch no core's TLB holds a "
                    "stale translation — the implementation honours the "
                    "model's atomic-unmap guarantee",
    )


# -- static discharge: the atomicity hypothesis and the lock order ------------


def _repo_root() -> pathlib.Path:
    """The tree the static VCs scan — looked up on every check, so a
    caller may rebind it (e.g. to a relative root)."""
    from repro.analysis.cli import repo_root

    return repo_root()


def _static_interference_vc() -> VC:
    def check():
        from repro.analysis.imports import discover_sources
        from repro.analysis.rg import check_interference

        sources = discover_sources(_repo_root())
        findings, stats = check_interference(sources)
        if stats["components"] < len(rs.COMPONENTS):
            return ("rg component modules missing from the tree",
                    stats["components"])
        if findings:
            first = findings[0]
            return (f"{len(findings)} interference finding(s)",
                    first.rule, f"{first.path}:{first.line}",
                    first.message)
        return None

    return VC(
        name="rg-static-interference-free",
        category="rg",
        check=check,
        description="the static rg pass finds no unguarded or "
                    "undeclared shared mutation — the stability VCs' "
                    "atomicity hypothesis holds of the code",
    )


def _static_lockorder_vc() -> VC:
    def check():
        from repro.analysis.imports import discover_sources
        from repro.analysis.lockorder import check_lock_order

        sources = discover_sources(_repo_root())
        findings, stats = check_lock_order(sources)
        if findings:
            first = findings[0]
            return (f"{len(findings)} lock-order finding(s)",
                    first.rule, f"{first.path}:{first.line}",
                    first.message)
        if stats["methods"] == 0:
            return ("lock-order pass scanned nothing", stats)
        return None

    return VC(
        name="rg-lockorder-clean",
        category="rg",
        check=check,
        description="the static lock acquisition graph across sched, "
                    "NR, the syscall ring, and the WAL is acyclic with "
                    "same-class nesting ordered",
    )


def rg_vcs() -> list[VC]:
    """The rely-guarantee VC family (group ``rg``)."""
    vcs = []
    for name, builder, invariants in rs.MODELS:
        model = FiniteModel(builder, "rg", MAX_STATES)
        vcs.append(model.explored_vc(
            f"rg-spec-explored-{name}",
            f"bounded exploration covers the finite {name} interference "
            f"model with every invariant holding"))
        # The rely is the union of the other threads' guarantees, and
        # every guarantee is one declared action — so stability of an
        # invariant under the rely decomposes into inductiveness under
        # each action alone, over every state full interference can
        # reach (the explored VC certifies that set is complete).
        actions = [t.name for t in builder().transitions]
        for invariant in invariants:
            for action in actions:
                vcs.append(model.inductive_vc(
                    invariant,
                    f"rg-stable-{invariant.replace('_', '-')}"
                    f"-under-{action}",
                    f"{name} invariant {invariant} is stable under an "
                    f"interfering thread's '{action}' guarantee",
                    action=action))
        vcs.append(model.vacuity_vc(
            _BROKEN[name], f"rg-spec-detects-violations-{name}",
            f"hand-broken {name} states (leaked frames, stale TLBs, "
            f"zombie replicas, ...) each violate their own invariant — "
            f"none is vacuous"))
    vcs.append(_impl_pmem_trace_vc())
    vcs.append(_impl_vspace_shootdown_vc())
    vcs.append(_static_interference_vc())
    vcs.append(_static_lockorder_vc())
    return vcs
