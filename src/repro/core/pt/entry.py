"""Page-table entry encoding and decoding.

This is the layer the paper calls "map from a multi-level tree structure
encoded as bits to a flat abstract data type" — the lion's share of its
proof effort.  Encoding produces the raw u64 the hardware walker interprets;
decoding recovers the abstract view.  The roundtrip lemmas over these
functions form the `entry` group of the verification conditions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro import wordlib
from repro.core.pt import defs
from repro.core.pt.defs import Flags, PageSize


class EntryKind(enum.Enum):
    EMPTY = "empty"
    TABLE = "table"
    PAGE = "page"


@dataclass(frozen=True)
class EntryView:
    """The abstract meaning of one raw page-table entry at a given level."""

    kind: EntryKind
    paddr: int = 0
    flags: Flags = Flags()


# EntryView is frozen, so every non-present entry decodes to this one
# shared view instead of a fresh allocation.
_EMPTY_VIEW = EntryView(EntryKind.EMPTY)


def encode_table(next_table_paddr: int) -> int:
    """Encode an intermediate entry pointing at the next-level table.

    Intermediate entries are maximally permissive (writable + user); the
    effective permissions come from the leaf, which is how NrOS configures
    its trees and keeps permission reasoning local to one entry.
    """
    if not wordlib.is_aligned(next_table_paddr, defs.PAGE_SIZE):
        raise ValueError(f"table paddr {next_table_paddr:#x} not page-aligned")
    if next_table_paddr & ~defs.ADDR_MASK:
        raise ValueError(f"table paddr {next_table_paddr:#x} out of range")
    raw = next_table_paddr & defs.ADDR_MASK
    raw = wordlib.set_bit(raw, defs.BIT_PRESENT, True)
    raw = wordlib.set_bit(raw, defs.BIT_WRITABLE, True)
    raw = wordlib.set_bit(raw, defs.BIT_USER, True)
    return raw


def encode_page(frame_paddr: int, flags: Flags, level: int) -> int:
    """Encode a leaf entry mapping a page at `level` (1 = 1 GiB, 2 = 2 MiB,
    3 = 4 KiB).

    The bit composition below is a straight-line OR of disjoint fields;
    the `entry-lemmas` VC group proves each field round-trips through
    :func:`decode`."""
    size = PageSize.for_level(level)
    if frame_paddr & (int(size) - 1):
        raise ValueError(
            f"frame {frame_paddr:#x} not aligned to {size.name}"
        )
    if frame_paddr & ~defs.ADDR_MASK:
        raise ValueError(f"frame paddr {frame_paddr:#x} out of range")
    raw = (
        frame_paddr
        | (1 << defs.BIT_PRESENT)
        | (flags.writable << defs.BIT_WRITABLE)
        | (flags.user << defs.BIT_USER)
        | (flags.write_through << defs.BIT_WRITE_THROUGH)
        | (flags.cache_disable << defs.BIT_CACHE_DISABLE)
        | (flags.global_ << defs.BIT_GLOBAL)
        | ((not flags.executable) << defs.BIT_NX)
    )
    if level in (1, 2):
        raw |= 1 << defs.BIT_HUGE
    return raw


# Flags is frozen, so one instance per distinct flag-bit combination can
# be shared by every entry that carries it — a mapping-heavy workload
# uses a handful of combinations across millions of decodes.
_FLAG_BITS_MASK = (
    (1 << defs.BIT_WRITABLE)
    | (1 << defs.BIT_USER)
    | (1 << defs.BIT_WRITE_THROUGH)
    | (1 << defs.BIT_CACHE_DISABLE)
    | (1 << defs.BIT_GLOBAL)
    | (1 << defs.BIT_NX)
)
_FLAG_CACHE: dict[int, Flags] = {}


def _decode_flags(raw: int) -> Flags:
    key = raw & _FLAG_BITS_MASK
    flags = _FLAG_CACHE.get(key)
    if flags is None:
        flags = Flags(
            writable=bool(wordlib.bit(raw, defs.BIT_WRITABLE)),
            user=bool(wordlib.bit(raw, defs.BIT_USER)),
            executable=not wordlib.bit(raw, defs.BIT_NX),
            write_through=bool(wordlib.bit(raw, defs.BIT_WRITE_THROUGH)),
            cache_disable=bool(wordlib.bit(raw, defs.BIT_CACHE_DISABLE)),
            global_=bool(wordlib.bit(raw, defs.BIT_GLOBAL)),
        )
        _FLAG_CACHE[key] = flags
    return flags


def decode(raw: int, level: int) -> EntryView:
    """Interpret a raw u64 entry the way the hardware walker does at
    `level`."""
    if not 0 <= level < defs.NUM_LEVELS:
        raise ValueError(f"bad level {level}")
    if not wordlib.bit(raw, defs.BIT_PRESENT):
        return _EMPTY_VIEW
    maps_page = level == 3 or (
        level in (1, 2) and wordlib.bit(raw, defs.BIT_HUGE)
    )
    paddr = raw & defs.ADDR_MASK
    if maps_page:
        size = PageSize.for_level(level)
        paddr = wordlib.align_down(paddr, int(size))
        return EntryView(EntryKind.PAGE, paddr, _decode_flags(raw))
    return EntryView(EntryKind.TABLE, paddr)


def is_well_formed(raw: int, level: int) -> bool:
    """Structural well-formedness the tree invariant demands of every
    present entry our implementation writes."""
    view = decode(raw, level)
    if view.kind is EntryKind.EMPTY:
        return raw == 0  # we always clear entries fully
    if view.kind is EntryKind.TABLE:
        if level == 3:
            return False  # PT entries never point to another table
        return wordlib.is_aligned(view.paddr, defs.PAGE_SIZE)
    size = PageSize.for_level(level)
    if level == 0:
        return False  # PML4 entries never map pages
    return wordlib.is_aligned(view.paddr, int(size))
