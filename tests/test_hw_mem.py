"""Tests for simulated physical memory."""

import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw.mem import PAGE_SIZE, PhysAccessError, PhysicalMemory


class TestConstruction:
    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            PhysicalMemory(100)
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    def test_num_frames(self):
        assert PhysicalMemory(16 * PAGE_SIZE).num_frames == 16

    def test_fresh_memory_reads_zero(self):
        size = 16 * 1024 * 1024
        mem = PhysicalMemory(size)
        assert mem.load_u64(0) == 0
        assert mem.load_u64(size - 8) == 0

    def test_forked_child_writes_stay_in_the_child(self):
        """The prover's process pool forks: a worker's stores must never
        reach the parent's memory."""
        mem = PhysicalMemory(PAGE_SIZE)
        mem.store_u64(0, 7)
        pid = os.fork()
        if pid == 0:
            mem.store_u64(0, 99)
            os._exit(0 if mem.load_u64(0) == 99 else 1)
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert mem.load_u64(0) == 7


class TestWordAccess:
    def test_store_load_roundtrip(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        mem.store_u64(0x100, 0xDEADBEEF_CAFEBABE)
        assert mem.load_u64(0x100) == 0xDEADBEEF_CAFEBABE

    def test_little_endian(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.store_u64(0, 0x0102030405060708)
        assert mem.load_u8(0) == 0x08
        assert mem.load_u8(7) == 0x01

    def test_store_truncates_to_64_bits(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.store_u64(0, 1 << 70 | 5)
        assert mem.load_u64(0) == 5

    def test_misaligned_word_rejected(self):
        mem = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(PhysAccessError, match="misaligned"):
            mem.load_u64(4)
        with pytest.raises(PhysAccessError):
            mem.store_u64(1, 0)

    def test_out_of_range(self):
        mem = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(PhysAccessError):
            mem.load_u64(PAGE_SIZE)
        with pytest.raises(PhysAccessError):
            mem.load_u8(PAGE_SIZE)
        with pytest.raises(PhysAccessError):
            mem.read(PAGE_SIZE - 4, 8)

    @given(st.integers(0, 63), st.integers(0, 2**64 - 1))
    def test_word_roundtrip_property(self, slot, value):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.store_u64(slot * 8, value)
        assert mem.load_u64(slot * 8) == value


class TestBulk:
    def test_read_write(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write(10, b"hello world")
        assert mem.read(10, 11) == b"hello world"

    def test_zero_frame(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        mem.write(PAGE_SIZE, b"\xff" * PAGE_SIZE)
        mem.zero_frame(PAGE_SIZE)
        assert mem.read(PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_zero_frame_alignment(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        with pytest.raises(PhysAccessError):
            mem.zero_frame(100)

    def test_frame_words(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.store_u64(8, 42)
        words = mem.frame_words(0)
        assert len(words) == 512
        assert words[1] == 42
        assert words[0] == 0

    def test_frame_words_equals_word_loads(self):
        rng = random.Random(15)
        mem = PhysicalMemory(4 * PAGE_SIZE)
        mem.write(0, rng.randbytes(4 * PAGE_SIZE))
        for frame in range(0, 4 * PAGE_SIZE, PAGE_SIZE):
            words = mem.frame_words(frame)
            assert isinstance(words, tuple)
            assert words == tuple(mem.load_u64(frame + 8 * i)
                                  for i in range(PAGE_SIZE // 8))

    def test_frame_words_checks_the_frame(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        with pytest.raises(PhysAccessError, match="misaligned"):
            mem.frame_words(8)
        with pytest.raises(PhysAccessError, match="outside"):
            mem.frame_words(2 * PAGE_SIZE)
