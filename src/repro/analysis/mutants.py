"""Seeded mutants the analysis passes must catch — one registry.

A detector that has only ever said "no races" is indistinguishable from
a detector that is wired to nothing.  Each mutant is a known-bad variant
of real code; CI runs ``python -m repro analyze --mutant <name>`` for
every entry of :data:`MUTANTS` and fails if one stops being flagged (the
analysis analog of the fault campaign's seeded injections).  Three kinds:

* ``nr`` — racy variants of the NR step protocol (the classes below),
  replayed by the race pass;
* ``sched`` — racy SMP runqueue protocols
  (:mod:`repro.analysis.sched_race`), replayed by the race pass;
* ``rg`` — deterministic AST transforms of the committed allocator
  source.  The transformed module replaces ``nros/pmem.py`` in the
  analyzed source set and the rg pass flags the now-unguarded
  mutations; being pure source transforms, they are flagged identically
  at every seed.  ``pmem-free-unlocked`` drops ``free_block``'s lock
  bracket entirely: a concurrent ``alloc_block`` can observe the free
  lists mid-coalesce (the classic lost-merge / double-ownership race).
  ``buddy-split-no-merge-lock`` releases the lock after picking a block
  but *before* splitting it and publishing the allocation, so the split
  loop's free-list writes race with a concurrent free's coalescing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.sched_race import (DoubleEnqueueProtocol,
                                       StealLockElisionProtocol)
from repro.nr.core import (
    APPLY,
    NodeReplicated,
    READ,
    READ_TAIL,
    RELEASE,
    SPIN,
    TRY_COMBINE,
    WLOCK,
)
from repro.nr.log import LogEntry
from repro.verif.rgspec import PMEM


class ReaderLockElisionNR(NodeReplicated):
    """The classic NR bug: a reader that checked the log prefix but
    queries the replica *without the reader lock*.  A concurrent
    combiner can then apply log entries to the data structure mid-query:
    its ``APPLY`` writes are neither lock-guarded against nor ordered
    with the reader's ``READ``, which is exactly what the lockset +
    vector-clock detector reports."""

    def read_steps(self, op, node: int, thread: int):
        replica = self.replicas[node]
        observed_tail = self.log.tail
        yield READ_TAIL

        # Catch-up is unchanged from the real protocol.
        while replica.ltail < observed_tail:
            if replica.combiner is None:
                replica.combiner = thread
                acquired = True
            else:
                acquired = False
            yield TRY_COMBINE
            if not acquired:
                yield SPIN
                continue
            while not replica.lock.try_acquire_write():
                yield WLOCK
            yield WLOCK
            tail = self.log.tail
            for entry in self.log.slice_from(replica.ltail, tail):
                result = replica.ds.apply(entry.op)
                if entry.node == node:
                    replica.results[entry.thread] = result
                replica.ltail += 1
                yield APPLY
            replica.lock.release_write()
            replica.combiner = None
            yield RELEASE

        # BUG (deliberate): the RLOCK acquire/release bracket is elided —
        # the query reads the replica unprotected.
        result = replica.ds.query(op)
        yield READ
        return result


class WriterLockElisionNR(NodeReplicated):
    """The dual mutant: the combiner applies log entries to the replica
    *without taking the writer lock*, so its ``APPLY`` writes race with
    any reader's locked ``READ`` (a read-lock alone cannot exclude an
    unlocked writer)."""

    def execute_steps(self, op, node: int, thread: int):
        replica = self.replicas[node]
        replica.slots[thread] = op
        yield "publish"

        while True:
            if thread in replica.results:
                result = replica.results.pop(thread)
                yield "check_result"
                return result
            yield "check_result"

            if replica.combiner is None:
                replica.combiner = thread
                acquired = True
            else:
                acquired = False
            yield TRY_COMBINE

            if not acquired:
                yield SPIN
                continue

            batch = list(replica.slots.items())
            replica.slots.clear()
            yield "collect"

            entries = [LogEntry(op=o, node=node, thread=t) for t, o in batch]
            self.log.append_batch(entries)
            replica.batches += 1
            replica.max_batch = max(replica.max_batch, len(entries))
            self.batch_sizes.record(len(entries))
            yield "append"

            # BUG (deliberate): the WLOCK acquire/release bracket is
            # elided — entries are applied with no writer lock held.
            tail = self.log.tail
            for entry in self.log.slice_from(replica.ltail, tail):
                result = replica.ds.apply(entry.op)
                if entry.node == node:
                    replica.results[entry.thread] = result
                replica.ltail += 1
                yield APPLY

            replica.combiner = None
            self._maybe_auto_gc()
            yield RELEASE


# -- rg: source transforms of the buddy allocator ---------------------------


#: The module the mutants rewrite (the rg component declaration is the
#: single source of truth for its path).
PMEM_MODULE = PMEM.module


def _method(tree, cls: str, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        item.name == name:
                    return item
    raise ValueError(f"{cls}.{name} not found in pmem source")


def _the_with(method: ast.FunctionDef) -> tuple[int, ast.With]:
    for index, node in enumerate(method.body):
        if isinstance(node, ast.With):
            return index, node
    raise ValueError(f"{method.name} has no with-block to mutate")


def _free_unlocked(source: str) -> str:
    """Replace free_block's lock bracket with its bare body."""
    tree = ast.parse(source)
    method = _method(tree, PMEM.cls, "free_block")
    index, with_node = _the_with(method)
    method.body[index:index + 1] = with_node.body
    return ast.unparse(ast.fix_missing_locations(tree))


def _split_no_merge_lock(source: str) -> str:
    """Hoist alloc_block's split loop (and everything after it) out of
    the lock bracket: the block is picked under the lock, but the split
    and the publication to the allocated map run unguarded."""
    tree = ast.parse(source)
    method = _method(tree, PMEM.cls, "alloc_block")
    index, with_node = _the_with(method)
    split_at = next(
        i for i, node in enumerate(with_node.body)
        if isinstance(node, ast.While))
    hoisted = with_node.body[split_at:]
    with_node.body = with_node.body[:split_at]
    method.body[index + 1:index + 1] = hoisted
    return ast.unparse(ast.fix_missing_locations(tree))


@dataclass(frozen=True)
class Mutant:
    """A registered mutant: `kind` picks the pass that must flag it and
    what `target` is — a NodeReplicated subclass (``nr``), an SMP
    runqueue protocol class (``sched``), or a transform of the pmem
    module's source text (``rg``)."""

    kind: str
    target: object


#: name -> mutant, for `python -m repro analyze --mutant` and the CI gate.
MUTANTS = {
    "reader-lock-elision": Mutant("nr", ReaderLockElisionNR),
    "writer-lock-elision": Mutant("nr", WriterLockElisionNR),
    "sched-steal-lock-elision": Mutant("sched", StealLockElisionProtocol),
    "sched-double-enqueue": Mutant("sched", DoubleEnqueueProtocol),
    "pmem-free-unlocked": Mutant("rg", _free_unlocked),
    "buddy-split-no-merge-lock": Mutant("rg", _split_no_merge_lock),
}


def apply_rg_mutant(sources: dict[str, str], name: str) -> dict[str, str]:
    """A copy of the source set with the ``rg`` mutant applied."""
    mutated = dict(sources)
    mutated[PMEM_MODULE] = MUTANTS[name].target(sources[PMEM_MODULE])
    return mutated
