"""Machine-speed calibration for wall-clock metrics.

On a shared host the speed of one core varies up to threefold, from
millisecond flicker to drifts lasting tens of seconds, as other tenants come
and go.  No statistic taken inside a run removes a drift that lasts the whole
run.  The benchmark therefore times a fixed reference computation many times
during each run, and scales wall times to the speed at which the reference
takes :data:`REFERENCE_S`:

    scaled = measured * REFERENCE_S / mean reference time

The reference is the geometric mean of four small CPython kernels: dict
updates, object allocation with attribute access, JSON/struct/CRC framing,
and 64-bit words packed into and read out of a 4 KiB frame.  These are the
kinds of work the program does.  On the 2-core Xeon host the benchmark was
tuned on, at its typical speed, the reference takes about REFERENCE_S, so
scaled times read close to raw ones.  A change to the program cannot move
the reference.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import struct
import time
import zlib

#: Reference time that scaled wall-clock metrics are expressed at, seconds.
REFERENCE_S = 0.0005
#: An interval scaled on its own uses the samples this close to it, seconds.
NEAR_S = 1.0


def _dict_kernel() -> int:
    table: dict[int, int] = {}
    for i in range(2000):
        key = i & 127
        table[key] = table.get(key, 0) + len(str(i))
    return len(table)


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next_cell) -> None:
        self.value = value
        self.next = next_cell


def _object_kernel() -> int:
    head = None
    for i in range(600):
        head = _Cell(i, head)
    total = 0
    while head is not None:
        total += head.value
        head = head.next
    return total


def _codec_kernel() -> int:
    frames = []
    for i in range(150):
        blob = json.dumps({"kind": "put", "req": i, "key": f"k{i}",
                           "value": "x" * 32}, sort_keys=True).encode()
        frames.append(struct.pack("<IQ", len(blob), zlib.crc32(blob)) + blob)
        json.loads(blob)
    return len(b"".join(frames))


def _word_kernel() -> int:
    frame = bytearray(4096)
    for offset in range(0, 4096, 8):
        frame[offset:offset + 8] = ((offset * 2654435761) & (2**64 - 1)
                                    ).to_bytes(8, "little")
    total = 0
    for offset in range(0, 4096, 8):
        total ^= int.from_bytes(frame[offset:offset + 8], "little") >> 12
    return total


KERNELS = (_dict_kernel, _object_kernel, _codec_kernel, _word_kernel)


class Speedometer:
    """Samples the reference time, and accounts for the time sampling takes.

    One sample runs each kernel once.  Factors use the mean of many samples:
    the speed of a shared core flickers from one millisecond to the next,
    and the mean of many short samples follows the average speed the
    measured work saw, where a best-of-N sample would follow the fastest
    moments only."""

    def __init__(self) -> None:
        #: wall seconds spent sampling so far
        self.spent_s = 0.0
        #: (when, reference time) of every sample
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        """Time the reference once: the geometric mean of the kernels'
        times.

        The cyclic collector is off while the kernels run, and everything
        they allocate is freed before it is back on.  A sample therefore
        neither pays for a collection nor moves where the program's next
        collection falls."""
        clock = time.perf_counter
        began = clock()
        collecting = gc.isenabled()
        gc.disable()
        try:
            logs = 0.0
            for kernel in KERNELS:
                start = clock()
                kernel()
                logs += math.log(clock() - start)
        finally:
            if collecting:
                gc.enable()
        self.samples.append((began, math.exp(logs / len(KERNELS))))
        self.spent_s += clock() - began

    def to_reference(self, start: float | None = None,
                     end: float | None = None) -> float:
        """The factor taking wall time to reference speed: from every
        sample, or, for an interval, from the samples within
        :data:`NEAR_S` of it and the nearest one on either side."""
        times = [when for when, _ in self.samples]
        if start is None or end is None:
            chosen = self.samples
        else:
            low = max(0, bisect.bisect_left(times, start - NEAR_S) - 1)
            high = bisect.bisect_right(times, end + NEAR_S) + 1
            chosen = self.samples[low:high]
        if not chosen:
            return 1.0
        return REFERENCE_S / (sum(value for _, value in chosen) / len(chosen))
