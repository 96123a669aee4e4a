"""Ring: batched syscall dispatch vs one-at-a-time, under contention.

Three workloads cross the user/kernel boundary ``ITERS`` times per
process — ``fs`` (64-entry file writes), ``net`` (UDP sends through the
loopback stack), ``pt`` (page map+unmap pairs) — each in two modes:

* **single** — one ``yield sys(...)`` per operation, the classic
  trap-per-call path (and for ``pt``, one full NR sync + TLB-shootdown
  round per unmapped page);
* **batched** — the same operations staged as fixed-size SQEs and
  submitted through the submission/completion ring, one ``ring_enter``
  per ``BATCH`` entries (and for ``pt``, ``vm_map_batch`` /
  ``vm_unmap_batch`` paying one shootdown round per ``PT_BATCH`` pages).

Each (workload, mode) cell runs at 1..8 processes on one kernel, so the
batched path is measured under scheduler contention, where amortizing
the per-crossing overhead matters most.  The acceptance gate — batched
pt throughput at least 3x single-call under contention — is a row of
``check_bench_json.py``'s gate table, checked before ``BENCH_ring.json``
is written.  The pt cell at the highest process count is the fastest of
``PT_REPEATS`` interleaved single/batched runs per mode (the minimum is
the least noisy estimate of intrinsic cost); the per-mode wall spread
is recorded under ``pt_repeats``.

Operation *counts* (ops, ring batches, SQEs, shootdown rounds) are
deterministic and CI-compares against ``baseline_ring.json``;
wall-clock throughput only meets a 2x collapse gate there.
"""

import gc
import os
import time

import pytest

from benchmarks._common import report_lines, write_bench_json
from repro import obs
from repro.nros.fs.fd import O_CREAT, O_RDWR
from repro.nros.kernel import Kernel
from repro.nros.syscall.abi import sys
from repro.ulib import Ring

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
PROC_COUNTS = (1, 8) if QUICK else (1, 2, 4, 8)
ITERS = 32 if QUICK else 96  # boundary crossings per process
BATCH = 16  # SQEs per ring_enter on the batched path
PT_BATCH = 16  # pages per vm_map_batch/vm_unmap_batch SQE
PT_REPEATS = 7  # interleaved runs behind the headline pt cell
IP = 0x0A00_0001
PAYLOAD = b"x" * 48  # fits an SQE blob alongside the int args
DEAD_PORT = 9  # nothing binds it: the stack drops deliveries

WORKLOADS = ("fs", "net", "pt")
MODES = ("single", "batched")


def _fs_single(index, iters, lats):
    def prog():
        fd = yield sys("open", f"/ring{index}.dat", O_CREAT | O_RDWR)
        for _ in range(iters):
            t0 = time.perf_counter()
            yield sys("write", fd, PAYLOAD)
            lats.append(time.perf_counter() - t0)
        yield sys("close", fd)

    return prog


def _fs_batched(index, iters, lats):
    def prog():
        fd = yield sys("open", f"/ring{index}.dat", O_CREAT | O_RDWR)
        ring = Ring(sq_depth=BATCH)
        yield from ring.setup()
        for _ in range(iters // BATCH):
            for _ in range(BATCH):
                ring.prepare("write", (fd, PAYLOAD))
            t0 = time.perf_counter()
            completions = yield from ring.submit()
            elapsed = time.perf_counter() - t0
            Ring.unwrap(completions)
            lats.extend([elapsed / BATCH] * BATCH)
        yield sys("close", fd)

    return prog


def _net_single(index, iters, lats):
    def prog():
        sid = yield sys("socket")
        yield sys("bind", sid, 1000 + index)
        for _ in range(iters):
            t0 = time.perf_counter()
            yield sys("sendto", sid, IP, DEAD_PORT, PAYLOAD)
            lats.append(time.perf_counter() - t0)

    return prog


def _net_batched(index, iters, lats):
    def prog():
        sid = yield sys("socket")
        yield sys("bind", sid, 1000 + index)
        ring = Ring(sq_depth=BATCH)
        yield from ring.setup()
        for _ in range(iters // BATCH):
            for _ in range(BATCH):
                ring.prepare("sendto", (sid, IP, DEAD_PORT, PAYLOAD))
            t0 = time.perf_counter()
            completions = yield from ring.submit()
            elapsed = time.perf_counter() - t0
            Ring.unwrap(completions)
            lats.extend([elapsed / BATCH] * BATCH)

    return prog


def _pt_single(index, iters, lats):
    def prog():
        for _ in range(iters):
            t0 = time.perf_counter()
            base = yield sys("vm_map", 1)
            yield sys("vm_unmap", base)
            lats.append(time.perf_counter() - t0)

    return prog


def _pt_batched(index, iters, lats):
    def prog():
        ring = Ring(sq_depth=4)
        yield from ring.setup()
        for _ in range(iters // PT_BATCH):
            t0 = time.perf_counter()
            ring.prepare("vm_map_batch", (PT_BATCH,))
            completions = yield from ring.submit()
            (base,) = Ring.unwrap(completions)
            # munmap-style range form: a few bytes in the SQE regardless
            # of the page count (a marshalled vaddr tuple would outgrow
            # the fixed-size slot past ~12 pages)
            ring.prepare("vm_unmap_batch", (base, PT_BATCH))
            Ring.unwrap((yield from ring.submit()))
            elapsed = time.perf_counter() - t0
            lats.extend([elapsed / PT_BATCH] * PT_BATCH)

    return prog


_FACTORIES = {
    ("fs", "single"): _fs_single,
    ("fs", "batched"): _fs_batched,
    ("net", "single"): _net_single,
    ("net", "batched"): _net_batched,
    ("pt", "single"): _pt_single,
    ("pt", "batched"): _pt_batched,
}


def _run_cell(kind, mode, procs):
    # earlier cells' kernels (64 MiB of simulated memory each) sit in
    # reference cycles: collect them here, not inside the timed run
    gc.collect()
    kernel = Kernel(num_cores=4, ip=IP)
    lats: list[float] = []
    rounds_before = obs.counter("vspace.shootdown_rounds").value
    for index in range(procs):
        name = f"{kind}-{mode}-{index}"
        kernel.register_program(
            name, _FACTORIES[(kind, mode)](index, ITERS, lats))
        kernel.spawn(name)
    t0 = time.perf_counter()
    kernel.run(max_ticks=5_000_000)
    wall = time.perf_counter() - t0
    for process in kernel.processes.values():
        assert process.exit_code == 0, (
            f"{kind}/{mode}/{procs}p: pid {process.pid} exited "
            f"{process.exit_code}")
    ops = procs * ITERS
    latency = obs.Histogram(samples=lats)
    return {
        "procs": procs,
        "ops": ops,
        "wall_seconds": wall,
        "ops_per_s": ops / wall if wall > 0 else 0.0,
        "p50_s": latency.percentile(50),
        "p99_s": latency.percentile(99),
        "ring_batches": kernel.stats.ring_batches,
        "ring_sqes": kernel.stats.ring_sqes,
        "shootdown_rounds": sum(p.vspace.shootdowns
                                for p in kernel.processes.values()),
        "shootdown_rounds_obs": (
            obs.counter("vspace.shootdown_rounds").value - rounds_before),
    }


def _fastest_pt_cell(first):
    """The headline cell, fastest of ``PT_REPEATS`` interleaved runs per
    mode (``first`` is one), and each mode's wall-time spread."""
    procs = PROC_COUNTS[-1]
    runs = {mode: [first[mode]] for mode in MODES}
    for _ in range(PT_REPEATS - 1):
        for mode in MODES:
            runs[mode].append(_run_cell("pt", mode, procs))
    cell = {mode: min(runs[mode], key=lambda run: run["wall_seconds"])
            for mode in MODES}
    walls = {mode: [run["wall_seconds"] for run in runs[mode]]
             for mode in MODES}
    spread = {"procs": procs, "repeats": PT_REPEATS,
              **{mode: {"min_s": min(w), "max_s": max(w)}
                 for mode, w in walls.items()}}
    return cell, spread


def ring_bench():
    series: dict = {}
    for kind in WORKLOADS:
        series[kind] = {}
        for procs in PROC_COUNTS:
            series[kind][str(procs)] = {
                mode: _run_cell(kind, mode, procs) for mode in MODES
            }
    # snapshot before the headline repeats: one pass over every cell
    batch_hist = obs.histogram("ring.batch_sqes")
    ring_obs = {
        "batch_count": batch_hist.count,
        "batch_p50": batch_hist.percentile(50),
        "sq_pending_gauge": obs.gauge("ring.sq_pending").value,
        "cq_ready_gauge": obs.gauge("ring.cq_ready").value,
    }
    top = str(PROC_COUNTS[-1])
    series["pt"][top], pt_repeats = _fastest_pt_cell(series["pt"][top])
    speedup = {
        kind: {
            procs: (cell["batched"]["ops_per_s"]
                    / max(cell["single"]["ops_per_s"], 1e-12))
            for procs, cell in series[kind].items()
        }
        for kind in WORKLOADS
    }
    return {
        "quick": QUICK,
        "iters": ITERS,
        "batch": BATCH,
        "pt_batch": PT_BATCH,
        "proc_counts": list(PROC_COUNTS),
        "series": series,
        "speedup": speedup,
        "pt_repeats": pt_repeats,
        "ring_obs": ring_obs,
    }


def _format(payload):
    lines = [
        f"  {payload['iters']} crossings/process, ring batch "
        f"{payload['batch']} SQEs, pt batch {payload['pt_batch']} pages",
        "",
        "  work  procs   single [op/s]   batched [op/s]   speedup"
        "   batched p50/p99 [us]",
    ]
    for kind in WORKLOADS:
        for procs in payload["proc_counts"]:
            cell = payload["series"][kind][str(procs)]
            single, batched = cell["single"], cell["batched"]
            lines.append(
                f"  {kind:4s}  {procs:5d}   {single['ops_per_s']:13,.0f}"
                f"   {batched['ops_per_s']:14,.0f}"
                f"   {payload['speedup'][kind][str(procs)]:7.2f}"
                f"   {batched['p50_s'] * 1e6:8.1f}/"
                f"{batched['p99_s'] * 1e6:<8.1f}")
    max_procs = str(payload["proc_counts"][-1])
    pt = payload["series"]["pt"][max_procs]
    repeats = payload["pt_repeats"]
    lines += [
        "",
        f"  pt shootdown rounds at {max_procs} processes: "
        f"{pt['single']['shootdown_rounds']} single vs "
        f"{pt['batched']['shootdown_rounds']} batched",
        f"  pt at {max_procs} processes: fastest of {repeats['repeats']} "
        f"runs per mode; wall spread " + ", ".join(
            f"{mode} {repeats[mode]['min_s'] * 1e3:.1f}-"
            f"{repeats[mode]['max_s'] * 1e3:.1f} ms" for mode in MODES),
    ]
    return lines


@pytest.mark.benchmark(group="ring")
def test_ring_batched_vs_single(benchmark, capsys):
    payload = benchmark.pedantic(ring_bench, rounds=1, iterations=1)
    max_procs = str(payload["proc_counts"][-1])
    for kind in WORKLOADS:
        benchmark.extra_info[f"speedup_{kind}_{max_procs}p"] = round(
            payload["speedup"][kind][max_procs], 2)

    path = write_bench_json("ring", payload)
    report_lines(capsys, "Ring: batched vs single-call syscall dispatch",
                 _format(payload) + ["", f"  wrote {path}"])
