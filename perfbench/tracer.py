"""Per-layer attribution by wrapping each layer's public functions from outside.

The program under test is not edited: a :class:`Tracer` replaces selected
functions and methods of ``repro`` modules with thin wrappers, and puts every
original back when it is closed.

* A *span* wrapper times the call.  A layer's self time is the duration of its
  spans minus the part covered by spans nested inside them, so the self times
  of all layers add up to the time covered by outermost spans.
* A *count* wrapper only counts calls.  It is for functions too small and too
  hot to time (one 64-bit load); their cost stays in the caller's layer.

A module-level function is rebound in every loaded ``repro`` module that holds
it, because callers often import it by name.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time

#: Self-time metric -> the public functions that make up that layer.
SPANS = {
    "prover.overhead_s": ["repro.prover.scheduler:prove_all"],
    "verif.s": ["repro.verif.vc:VC.discharge",
                "repro.verif.vc:discharge_family"],
    "refine.s": ["repro.core.refine.interp:interpret",
                 "repro.core.refine.interp:tree_invariants"],
    "smt.check_s": ["repro.smt.solver:Solver.check",
                    "repro.smt.solver:FamilySolver.__init__",
                    "repro.smt.solver:FamilySolver.prove_member"],
    "hw.s": ["repro.hw.mmu:Mmu.walk", "repro.hw.mmu:Mmu.translate",
             "repro.hw.tlb:Tlb.lookup", "repro.hw.tlb:Tlb.insert",
             "repro.hw.tlb:Tlb.invalidate_page",
             "repro.hw.tlb:Tlb.invalidate_pages",
             "repro.hw.mem:PhysicalMemory.zero_frame",
             "repro.hw.mem:PhysicalMemory.read",
             "repro.hw.mem:PhysicalMemory.write"],
    "pt.s": ["repro.core.pt.impl:PageTable.map_frame",
             "repro.core.pt.impl:PageTable.map_batch",
             "repro.core.pt.impl:PageTable.unmap",
             "repro.core.pt.impl:PageTable.unmap_batch",
             "repro.core.pt.impl:PageTable.resolve"],
    "nr.execute_s": ["repro.nr.core:NodeReplicated.execute",
                     "repro.nr.core:NodeReplicated.execute_ro",
                     "repro.nr.core:NodeReplicated.sync_all"],
    "vspace.s": ["repro.nros.vspace:VSpace.map",
                 "repro.nros.vspace:VSpace.unmap",
                 "repro.nros.vspace:VSpace.map_batch",
                 "repro.nros.vspace:VSpace.unmap_batch",
                 "repro.nros.vspace:VSpace.resolve",
                 "repro.nros.vspace:VSpace.translate"],
    "pmem.s": ["repro.nros.pmem:BuddyAllocator.alloc_frame",
               "repro.nros.pmem:BuddyAllocator.free_frame",
               "repro.nros.pmem:BuddyAllocator.alloc_block",
               "repro.nros.pmem:BuddyAllocator.free_block"],
    "kernel.s": ["repro.nros.kernel:Kernel.step"],
    "syscall.marshal_s": ["repro.nros.syscall.marshal:marshal",
                          "repro.nros.syscall.marshal:unmarshal",
                          "repro.nros.syscall.marshal:marshal_call",
                          "repro.nros.syscall.marshal:unmarshal_call"],
    "ring.s": ["repro.nros.syscall.ring:encode_sqe",
               "repro.nros.syscall.ring:decode_sqe",
               "repro.nros.syscall.ring:encode_cqe",
               "repro.nros.syscall.ring:decode_cqe"],
    "sched.s": ["repro.nros.sched.scheduler:Scheduler.next_thread",
                "repro.nros.sched.scheduler:Scheduler.ready",
                "repro.nros.sched.scheduler:Scheduler.block",
                "repro.nros.sched.scheduler:Scheduler.wake",
                "repro.nros.sched.scheduler:Scheduler.forget"],
    "net.stack_s": ["repro.nros.net.stack:NetStack.udp_send",
                    "repro.nros.net.stack:NetStack.poll",
                    "repro.nros.net.stack:NetStack.tick"],
    "net.link_s": ["repro.nros.net.link:Link.pump"],
    "fs.s": ["repro.nros.fs.fs:FileSystem.read_at",
             "repro.nros.fs.fs:FileSystem.write_at",
             "repro.nros.fs.fs:FileSystem.truncate",
             "repro.nros.fs.fs:FileSystem.lookup",
             "repro.nros.fs.fs:FileSystem.create",
             "repro.nros.fs.fs:FileSystem.unlink",
             "repro.nros.fs.fs:FileSystem.rename",
             "repro.nros.fs.fs:FileSystem.readdir",
             "repro.nros.fs.fs:FileSystem.stat",
             "repro.nros.fs.fd:FdTable.open",
             "repro.nros.fs.fd:FdTable.read",
             "repro.nros.fs.fd:FdTable.write",
             "repro.nros.fs.fd:FdTable.seek",
             "repro.nros.fs.fd:FdTable.close"],
    "block.s": ["repro.nros.drivers.block:BlockDriver.read",
                "repro.nros.drivers.block:BlockDriver.write",
                "repro.nros.drivers.block:BlockDriver.zero",
                "repro.nros.drivers.block:BlockDriver.submit",
                "repro.nros.drivers.block:BlockDriver.service"],
    "cluster.gateway_s": ["repro.cluster.client:ClientGateway.issue",
                          "repro.cluster.client:ClientGateway.on_tick"],
    "cluster.node_s": ["repro.cluster.node:ClusterNode.on_tick"],
    "cluster.codec_s": ["repro.cluster.messages:encode",
                        "repro.cluster.messages:decode"],
    "cluster.wal_s": ["repro.cluster.wal:NodeWal.append",
                      "repro.cluster.wal:NodeWal.compact"],
}

#: Count metric -> the function whose calls it counts.  Spanned functions
#: are counted by their span wrapper; the rest get a count-only wrapper.
COUNTS = {
    "refine.interpret_calls": "repro.core.refine.interp:interpret",
    "hw.mem.load_u64_calls": "repro.hw.mem:PhysicalMemory.load_u64",
    "hw.mem.frame_words_calls": "repro.hw.mem:PhysicalMemory.frame_words",
    "net.checksum_calls": "repro.nros.net.ip:checksum16",
    "nr.batches": "repro.nr.log:Log.append_batch",
    "cluster.wal_appends": "repro.cluster.wal:NodeWal.append",
    "cluster.wal_compactions": "repro.cluster.wal:NodeWal.compact",
    "block.writes": "repro.nros.drivers.block:BlockDriver.write",
}


def _resolve(target: str):
    """``module:Class.attr`` or ``module:func`` -> (owner, attr, function)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    function = vars(owner)[attr]
    if not callable(function) or isinstance(function, (staticmethod,
                                                       classmethod)):
        raise TypeError(f"{target} is not a plain function")
    return owner, attr, function


class Tracer:
    """Installs the wrappers of :data:`SPANS` and :data:`COUNTS`."""

    def __init__(self) -> None:
        self.self_s = {metric: 0.0 for metric in SPANS}
        self.calls: dict[str, int] = {}
        self.covered_s = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing -------------------------------------------

    def install(self) -> "Tracer":
        # Load every module first: one imported later would bind a wrapper
        # by name and keep it after close().
        import repro
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        wrappers: dict[str, tuple] = {}  # target -> (owner, attr, wrapper)
        for metric, targets in SPANS.items():
            for target in targets:
                owner, attr, original = _resolve(target)
                wrappers[target] = (owner, attr,
                                    self._span(metric, target, original))
        for target in COUNTS.values():
            if target not in wrappers:
                owner, attr, original = _resolve(target)
                wrappers[target] = (owner, attr,
                                    self._count(target, original))
        for owner, attr, wrapper in wrappers.values():
            original = vars(owner)[attr]
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for name, module in list(sys.modules.items()):
                if (name.startswith("repro.") and module is not owner
                        and vars(module).get(attr) is original):
                    self._patch(module, attr, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def close(self) -> list[str]:
        """Put every original back; returns the attributes that still hold
        a wrapper (empty when restoration is complete).  The search covers
        every ``repro`` module and class, so it also finds a module that
        was imported while tracing ran and bound a wrapper by name."""
        wrappers = [vars(owner)[attr] for owner, attr, _ in self._patches]
        wrapper_ids = {id(wrapper) for wrapper in wrappers}
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        left = []
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            owners = [(name, module)] + [
                (f"{name}.{key}", value)
                for key, value in list(vars(module).items())
                if isinstance(value, type)]
            for owner_name, owner in owners:
                left += [f"{owner_name}.{attr}"
                         for attr, value in list(vars(owner).items())
                         if id(value) in wrapper_ids]
        return left

    # -- the wrappers ------------------------------------------------------

    def _span(self, metric: str, target: str, function):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        calls[target] = 0
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            calls[target] += 1
            stack.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[metric] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.covered_s += elapsed

        wrapper.__wrapped__ = function
        return wrapper

    def _count(self, target: str, function):
        calls = self.calls
        calls[target] = 0

        def wrapper(*args, **kwargs):
            calls[target] += 1
            return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every total; call with no span open."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        for metric in self.self_s:
            self.self_s[metric] = 0.0
        for target in self.calls:
            self.calls[target] = 0
        self.covered_s = 0.0

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Self time per layer, call counts, and the time no span covered.

        Raises when the self times do not add up to the covered time, that
        is when attribution does not close."""
        total_self = sum(self.self_s.values())
        if abs(total_self - self.covered_s) > 1e-6 * max(1.0, wall_s):
            raise RuntimeError(
                f"attribution does not close: self times sum to "
                f"{total_self:.6f}s, spans cover {self.covered_s:.6f}s")
        out = dict(self.self_s)
        for metric, target in COUNTS.items():
            out[metric] = self.calls[target]
        out["unattributed_s"] = wall_s - self.covered_s
        out["traced_wall_s"] = wall_s
        return out
