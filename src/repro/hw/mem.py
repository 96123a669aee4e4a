"""Byte-addressable physical memory.

Backed by a private anonymous memory map, so the operating system
materialises a zero page only when it is first touched: making a 16 MiB
memory costs microseconds rather than a full zero-fill.  The mapping is
``MAP_PRIVATE``, so a forked child (the prover's process pool forks)
writes to its own copy, never to the parent's.  Loads and stores of 64-bit
words must be naturally aligned, matching the alignment the hardware page
walker requires of page table entries.

Interference model (see :mod:`repro.verif.rgspec`): physical memory itself
carries no lock.  Its rely is *frame ownership* — a thread only touches
frames it owns, where ownership is handed out exclusively by the buddy
allocator (:mod:`repro.nros.pmem`) under ``pmem.alloc``.  That makes every
access here guarded ambiently: the allocator's mutual exclusion on the
frame map is what prevents two threads from racing on the same frame, so
the static rely-guarantee checker treats `PhysicalMemory` accesses as
covered by the `physmem` component's ownership guard rather than by a
lexical lock bracket.
"""

from __future__ import annotations

import mmap
import struct

from repro import wordlib

PAGE_SIZE = 4096

_FRAME = struct.Struct(f"<{PAGE_SIZE // 8}Q")


class PhysAccessError(Exception):
    """Out-of-range or misaligned physical access."""


class PhysicalMemory:
    """A flat physical address space.

    The `frames` helper views memory as an array of 4 KiB frames, which is
    the granularity the frame allocator hands out.
    """

    def __init__(self, size: int) -> None:
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError(f"memory size must be a positive multiple of {PAGE_SIZE}")
        self.size = size
        self._bytes = mmap.mmap(-1, size,
                                flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)

    @property
    def num_frames(self) -> int:
        return self.size // PAGE_SIZE

    def _check(self, paddr: int, length: int, alignment: int = 1) -> None:
        if paddr < 0 or paddr + length > self.size:
            raise PhysAccessError(
                f"access [{paddr:#x}, {paddr + length:#x}) outside memory of "
                f"size {self.size:#x}"
            )
        if alignment > 1 and paddr % alignment:
            raise PhysAccessError(f"misaligned access at {paddr:#x}")

    def load_u64(self, paddr: int) -> int:
        self._check(paddr, 8, alignment=8)
        return int.from_bytes(self._bytes[paddr : paddr + 8], "little")

    def store_u64(self, paddr: int, value: int) -> None:
        self._check(paddr, 8, alignment=8)
        self._bytes[paddr : paddr + 8] = wordlib.truncate(value, 64).to_bytes(
            8, "little"
        )

    def load_u8(self, paddr: int) -> int:
        self._check(paddr, 1)
        return self._bytes[paddr]

    def store_u8(self, paddr: int, value: int) -> None:
        self._check(paddr, 1)
        self._bytes[paddr] = value & 0xFF

    def read(self, paddr: int, length: int) -> bytes:
        self._check(paddr, length)
        return bytes(self._bytes[paddr : paddr + length])

    def write(self, paddr: int, data: bytes) -> None:
        self._check(paddr, len(data))
        self._bytes[paddr : paddr + len(data)] = data

    def zero_frame(self, frame_paddr: int) -> None:
        """Clear one 4 KiB frame (used when allocating page-table nodes)."""
        self._check(frame_paddr, PAGE_SIZE, alignment=PAGE_SIZE)
        self._bytes[frame_paddr : frame_paddr + PAGE_SIZE] = bytes(PAGE_SIZE)

    def is_zero_range(self, paddr: int, length: int) -> bool:
        """True when every byte in [paddr, paddr+length) is zero (used by
        the page-table GC to test table emptiness cheaply)."""
        self._check(paddr, length)
        return self._bytes[paddr : paddr + length].count(0) == length

    def frame_words(self, frame_paddr: int) -> tuple[int, ...]:
        """The 512 u64 entries stored in one frame (a page-table node),
        read in one unpack: the whole-table read every loop over all of a
        table's entries goes through."""
        self._check(frame_paddr, PAGE_SIZE, alignment=PAGE_SIZE)
        return _FRAME.unpack_from(self._bytes, frame_paddr)
