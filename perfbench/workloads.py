"""The four benchmark workloads: inputs, measurement and correctness gates.

Every workload does a fixed amount of work for a given ``--seconds`` (sized to
take about that long on a 2-core x86 host; kv-read, whose spread is widest,
does twice that), so counts and simulated times are a function of the seed
alone.  A repetition runs in one of three modes:

* ``e2e``: untraced, with the machine's speed sampled throughout (see
  :mod:`calib`) so wall-clock metrics can be scaled to reference speed;
* ``plain``: untraced and uncalibrated, the baseline of a traced run;
* ``traced``: under :class:`tracer.Tracer`, for per-layer metrics.

A traced run does a ``plain`` and a ``traced`` repetition of the same seed at
half size each.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from calib import Speedometer
from tracer import COUNTS, SPANS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh-interpreter set-ups per run; their median is ``setup_s``.
SETUP_REPEATS = 7
#: Seconds after its start by which a run must have ended: a child still
#: running then is stopped and the run fails.
RUN_LIMIT_S = 170
STARTED = time.monotonic()
#: Points spread over a kv or vm repetition where the reference is
#: sampled, SAMPLES_PER_POINT times each.
SAMPLE_POINTS = 40
SAMPLES_PER_POINT = 2
#: A cold prove samples the reference between VCs at most this often,
#: seconds.
PROVE_SAMPLE_EVERY_S = 0.1

# prove-cold: `prove --quick --layers all --jobs 1` from an empty cache.
EXPECTED_VCS = 270
VC_FAMILIES = ("address-lemmas", "contract", "entry-lemmas",
               "hardware-agreement", "invariants", "marshal-lemmas",
               "nr-linearizability", "refinement", "rg", "scheduler",
               "simulation", "tlb")

# kv-*: 3 nodes, rf=2, open-loop Poisson arrivals, Zipf keys.
KV_NODES = 3
KV_RF = 2
KV_RATE = 6_000_000.0      # arrivals per simulated second
KV_KEYS = 512
KV_THETA = 0.99
KV_CLIENTS = 1_000_000
KV_VALUE_BYTES = 32
KV_DRAIN_TICKS = 120_000

# vm-churn: one kernel, 4 cores, 8 processes, 16 pages per round.
VM_CORES = 4
VM_PROCS = 8
VM_PAGES = 16


# -- shared helpers ---------------------------------------------------------


@dataclass
class Rep:
    """One repetition of a workload's measured phase.  Wall times exclude
    reference sampling; the ``*_ref_s`` twins are scaled to reference
    speed (equal to the raw ones outside ``e2e`` mode)."""

    items: int                   # VCs, client ops or pages completed
    busy_s: float                # wall seconds of the measured work
    busy_ref_s: float
    item_s: list[float]          # wall seconds of each VC, op or syscall
    item_ref_s: list[float]
    attempted: int
    failed: int
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)  # counts and sim ns
    layers: dict = field(default_factory=dict)       # traced reps only


def sampling_points(total: int) -> list[int]:
    """Progress marks (ops or pages done) at which a kv or vm repetition
    samples the reference."""
    return [total * j // SAMPLE_POINTS for j in range(1, SAMPLE_POINTS)]


def scaled_rep(meter: Speedometer, items: int, busy_s: float,
               item_s: list[float], **rest) -> Rep:
    """A Rep whose wall times all take the run's factor (1.0 when the
    meter has no samples)."""
    factor = meter.to_reference()
    return Rep(items=items, busy_s=busy_s, busy_ref_s=busy_s * factor,
               item_s=item_s, item_ref_s=[t * factor for t in item_s],
               **rest)


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0 < q < 100) of a non-empty sample, read as the
    mean of the values ranked between percentiles q - w and q + w, where
    w = min(5, (100 - q) / 2).

    Where a distribution has a gap (the VC times jump between proof
    families), the nearest-rank value hops across the gap when two items
    swap places; the mean over the band moves smoothly instead."""
    ordered = sorted(values)
    width = min(5.0, (100 - q) / 2) / 100
    low = math.floor((q / 100 - width) * len(ordered))
    high = math.ceil((q / 100 + width) * len(ordered))
    band = ordered[max(0, low):max(low + 1, min(len(ordered), high))]
    return sum(band) / len(band)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child_env(src: str, workdir: str) -> dict:
    """The environment of every child: the program and this directory on
    the path, no repo-wide knobs, a fixed hash seed, and a proof-cache
    location that must stay unused."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    # the same string hashes, so dict and set layouts, in every child
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_PROOF_CACHE"] = os.path.join(workdir, "forbidden-cache")
    env["XDG_CACHE_HOME"] = os.path.join(workdir, "forbidden-xdg")
    return env


def run_child(args: list[str], src: str, workdir: str) -> str:
    """Run ``child.py`` in a fresh interpreter; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        env=child_env(src, workdir), cwd=workdir, capture_output=True,
        text=True, check=False,
        timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED)))
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(workload: str, seed: int, src: str, workdir: str,
                  meter: Speedometer) -> float:
    """Wall seconds of one fresh-interpreter set-up, with the reference
    sampled before and after it."""
    meter.sample()
    start = time.perf_counter()
    run_child(["setup", workload, str(seed)], src, workdir)
    wall = time.perf_counter() - start
    meter.sample()
    return wall


# -- prove-cold -------------------------------------------------------------


def build_prover():
    """The `prove --quick --layers all` VC population (built lazily)."""
    from repro.core.refine.proof import build_proof
    return build_proof(include_lemmas=True, include_structural=True,
                       include_nr=True, include_contract=True,
                       include_sched=True, include_rg=True,
                       scenario_depth=2, scenario_cap=12)


def relative_repo_root() -> None:
    """Move this process to the repository root and hand the program that
    root as ``.``.

    ``repro.analysis.imports.discover_sources`` skips every file whose
    absolute path has a component that starts with ``.``.  In a checkout
    under a hidden directory it therefore finds no source at all, and the
    two static VCs of the ``rg`` family fail.  With a relative root they
    scan the same files, and check the same things, wherever the checkout
    lives."""
    import repro.verif.rgproof as rgproof
    os.chdir(rgproof._repo_root())
    rgproof._repo_root = lambda: pathlib.Path(".")


def prove_in_process(cache_dir: str, mode: str) -> dict:
    """One cold prove on the inline lane (the child's body)."""
    from repro import obs
    import repro.core.refine.proof  # noqa: F401  (bind names before wrapping)
    import repro.prover.scheduler as scheduler
    from repro.prover import ProofCache, ProverConfig

    relative_repo_root()

    # In e2e mode the reference is sampled between VCs, never inside one,
    # and each VC is scaled by the samples around it.
    meter = Speedometer() if mode == "e2e" else None
    finished: dict[str, float] = {}

    def progress(result) -> None:
        finished[result.name] = time.perf_counter()
        if (meter is not None and finished[result.name]
                - meter.samples[-1][0] >= PROVE_SAMPLE_EVERY_S):
            meter.sample()

    tracer = Tracer().install() if mode == "traced" else None
    try:
        engine = build_prover()
        cache = ProofCache(cache_dir)
        config = ProverConfig(jobs=1, use_cache=True, cache_dir=cache_dir)
        if tracer is not None:
            tracer.reset()
        if meter is not None:
            meter.sample()
        spent_before = meter.spent_s if meter is not None else 0.0
        start = time.perf_counter()
        report = scheduler.prove_all(engine, jobs=1, cache=cache,
                                     config=config, progress=progress)
        wall = time.perf_counter() - start
        layers = tracer.metrics(wall) if tracer is not None else {}
    finally:
        broken = tracer.close() if tracer is not None else []
    if meter is not None:
        meter.sample()

    def scaled(result) -> float:
        if meter is None:
            return result.seconds
        end = finished[result.name]
        return result.seconds * meter.to_reference(end - result.seconds, end)

    # the prove's own time: VCs scaled one by one, the rest (goal
    # building, fingerprints, cache writes) by the run's factor
    vc_ref_s = [scaled(r) for r in report.results]
    busy = wall - (meter.spent_s - spent_before if meter is not None else 0)
    busy_ref = sum(vc_ref_s) + (
        (busy - sum(r.seconds for r in report.results))
        * (meter.to_reference() if meter is not None else 1.0))
    families = {name: 0.0 for name in VC_FAMILIES}
    for result in report.results:
        families[result.category] = (families.get(result.category, 0.0)
                                      + result.seconds)
    return {
        "wall_s": busy,
        "wall_ref_s": busy_ref,
        "vcs": [[r.name, r.status.value, r.category, r.seconds, r.cached,
                 ref_s] for r, ref_s in zip(report.results, vc_ref_s)],
        "families": families,
        "solver": report.solver_counters(),
        "layers": layers,
        "not_restored": broken,
        "bus_active": obs.bus().active,
        "rss_mb": _rss_mb(),
    }


def prove_cold(seed: int, size: int, mode: str, src: str,
               workdir: str) -> Rep:
    """One cold prove in a fresh interpreter and an empty cache directory
    (the population has no random input, so the seed is unused, and the
    prove is the whole repetition, so the size is too)."""
    del seed, size
    cache_dir = tempfile.mkdtemp(prefix="proof-cache-", dir=workdir)
    out = json.loads(run_child(["prove", cache_dir, mode], src,
                               workdir).strip().splitlines()[-1])
    vcs = out["vcs"]
    problems: list[str] = []
    unproved = [row[0] for row in vcs if row[1] != "proved"]
    if len({row[0] for row in vcs}) != EXPECTED_VCS:
        problems.append(f"{len({row[0] for row in vcs})} distinct VC names, "
                        f"expected {EXPECTED_VCS}")
    if unproved:
        problems.append(f"not proved: {unproved[:5]}")
    if any(row[4] for row in vcs):
        problems.append("a VC was served from the proof cache")
    if out["not_restored"]:
        problems.append(f"wrappers left behind: {out['not_restored']}")
    if out["bus_active"]:
        problems.append("obs bus was subscribed during the prove")
    if set(out["families"]) != set(VC_FAMILIES):
        problems.append(f"VC families changed: {sorted(out['families'])}")
    for forbidden in ("forbidden-cache", "forbidden-xdg"):
        if os.path.exists(os.path.join(workdir, forbidden)):
            problems.append(f"the default proof cache was touched "
                            f"({forbidden})")
    layers: dict = {}
    if mode == "traced":
        layers = dict(out["layers"])
        for family, seconds in out["families"].items():
            layers[f"vc.{family}_s"] = seconds
        layers["smt.conflicts"] = out["solver"].get("conflicts", 0)
    return Rep(
        items=len(vcs), busy_s=out["wall_s"], busy_ref_s=out["wall_ref_s"],
        item_s=[row[3] for row in vcs], item_ref_s=[row[5] for row in vcs],
        attempted=len(vcs), failed=len(unproved), rss_mb=out["rss_mb"],
        problems=problems,
        fingerprint={"vcs": [row[:3] for row in vcs],
                     "solver": out["solver"]},
        layers=layers)


# -- kv-mixed / kv-read -----------------------------------------------------


def kv_inputs(seed: int, ops: int, put: float, delete: float) -> list[tuple]:
    """The open-loop schedule: (arrival ns, op, key, value, client)."""
    rng = random.Random(f"perfbench/{seed}/kv")
    cumulative, total = [], 0.0
    for rank in range(KV_KEYS):
        total += 1.0 / (rank + 1) ** KV_THETA
        cumulative.append(total)
    schedule, at_ns = [], 0.0
    for index in range(ops):
        key = f"k{bisect.bisect_left(cumulative, rng.random() * total)}"
        client = rng.randrange(KV_CLIENTS)
        which = rng.random()
        if which < put:
            op, value = "put", f"v{index}".ljust(KV_VALUE_BYTES, ".")
        elif which < put + delete:
            op, value = "del", None
        else:
            op, value = "get", None
        schedule.append((at_ns, op, key, value, client))
        at_ns += rng.expovariate(KV_RATE) * 1e9
    return schedule


def build_deployment(seed: int):
    from repro.cluster.deploy import Deployment
    from repro.obs.registry import Registry
    return Deployment(KV_NODES, rf=KV_RF, registry=Registry(), seed=seed)


def _kv(put: float, delete: float):
    def measure(seed: int, ops: int, mode: str, src: str,
                workdir: str) -> Rep:
        del src, workdir
        from repro.cluster.client import AUDIT_CLIENT
        from repro.cluster.node import TICK_NS
        from repro.nros.fs.blockdev import BLOCK_SIZE

        schedule = kv_inputs(seed, ops, put, delete)
        user_bytes = sum(len(key) + len(value)
                         for _, op, key, value, _ in schedule if op == "put")
        points = sampling_points(ops) if mode == "e2e" else []
        meter = Speedometer()
        tracer = Tracer().install() if mode == "traced" else None
        try:
            deployment = build_deployment(seed)
            gateway = deployment.gateway
            outstanding = gateway.outstanding
            clock = time.perf_counter
            # req -> (op index, issue time, reference seconds spent then)
            inflight: dict[int, tuple[int, float, float]] = {}
            latencies = [0.0] * ops
            issued, deadline = 0, None
            if tracer is not None:
                tracer.reset()
            if points:
                meter.sample()
            start = clock()
            start_tick = deployment.now
            while True:
                now_ns = (deployment.now - start_tick) * TICK_NS
                while issued < ops and schedule[issued][0] <= now_ns:
                    if points and issued == points[0]:
                        points.pop(0)
                        for _ in range(SAMPLES_PER_POINT):
                            meter.sample()
                    _, op, key, value, client = schedule[issued]
                    req = gateway.issue(op, key, value, client,
                                        deployment.now)
                    inflight[req] = (issued, clock(), meter.spent_s)
                    issued += 1
                deployment.step()
                if len(outstanding) != len(inflight):
                    done_at, spent = clock(), meter.spent_s
                    for req in [r for r in inflight if r not in outstanding]:
                        index, began, spent_then = inflight.pop(req)
                        latencies[index] = done_at - began - (spent
                                                              - spent_then)
                if issued >= ops:
                    if deadline is None:
                        deadline = deployment.now + KV_DRAIN_TICKS
                    if not outstanding or deployment.now >= deadline:
                        break
            wall = clock() - start - meter.spent_s
            layers = tracer.metrics(wall) if tracer is not None else {}
        finally:
            broken = tracer.close() if tracer is not None else []
        if mode == "e2e":
            meter.sample()
        undrained = len(outstanding)
        outstanding.clear()
        sim_ticks = deployment.now - start_tick
        latency = {op: gateway.latency[op].snapshot()
                   for op in sorted(gateway.latency)
                   if gateway.latency[op].count}
        fingerprint = {
            "ticks": sim_ticks, "acked": gateway.acked.value,
            "failed": gateway.failed.value,
            "retries": gateway.retries.value,
            "redirects": gateway.redirects.value, "latency": latency,
        }
        # durability audit: read back every acknowledged write
        audit_keys = gateway.audit_keys()
        for offset in range(0, len(audit_keys), 16):
            for key in audit_keys[offset:offset + 16]:
                gateway.issue("get", key, None, AUDIT_CLIENT, deployment.now)
            for _ in range(KV_DRAIN_TICKS):
                deployment.step()
                if not outstanding:
                    break
        losses = gateway.audit_losses()

        problems = []
        if undrained:
            problems.append(f"{undrained} ops never drained")
        if gateway.failed.value:
            problems.append(f"{gateway.failed.value} ops gave up")
        if losses:
            problems.append(f"{len(losses)} acked writes lost: {losses[:3]}")
        if gateway.ryw_violations:
            problems.append(f"{len(gateway.ryw_violations)} read-your-writes "
                            f"violations: {gateway.ryw_violations[:3]}")
        if fingerprint["acked"] != ops:
            problems.append(f"{fingerprint['acked']} of {ops} ops acked")
        if broken:
            problems.append(f"wrappers left behind: {broken}")
        failed = (ops - fingerprint["acked"]) + len(losses) + len(
            gateway.ryw_violations)
        if mode == "traced":
            layers["cluster.retries"] = gateway.retries.value
            layers["cluster.redirects"] = gateway.redirects.value
            layers["block.bytes_per_user_byte"] = (
                layers["block.writes"] * BLOCK_SIZE / user_bytes)
            for op in ("get", "put"):
                for q in (50, 99):
                    layers[f"cluster.{op}_p{q}_sim_ns"] = \
                        gateway.latency[op].percentile(q)
        return scaled_rep(meter, fingerprint["acked"], wall, latencies,
                          attempted=ops, failed=failed, rss_mb=_rss_mb(),
                          problems=problems, fingerprint=fingerprint,
                          layers=layers)

    return measure


# -- vm-churn ---------------------------------------------------------------


def _vm_single(rounds: int, values: list[list[int]], bad: list,
               done: list[int]):
    """map each page with its own vm_map, poke and peek every page, then
    unmap each page with its own vm_unmap (one shootdown round per page).
    ``done[0]`` counts pages unmapped, ``bad`` collects wrong peeks."""
    from repro.nros.syscall.abi import sys as syscall

    def program():
        for r in range(rounds):
            bases = []
            for _ in range(VM_PAGES):
                bases.append((yield syscall("vm_map", 1)))
            for base, value in zip(bases, values[r]):
                yield syscall("poke", base, value)
            for base, value in zip(bases, values[r]):
                if (yield syscall("peek", base)) != value:
                    bad.append((base, value))
            for base in bases:
                yield syscall("vm_unmap", base)
                done[0] += 1

    return program


def _vm_batched(rounds: int, values: list[list[int]], bad: list,
                done: list[int]):
    """The same churn with one ring vm_map_batch / vm_unmap_batch per round
    (one shootdown round per 16 pages)."""
    from repro.core.pt.defs import PAGE_SIZE
    from repro.nros.syscall.abi import sys as syscall
    from repro.ulib import Ring

    def program():
        ring = Ring(sq_depth=4)
        yield from ring.setup()
        for r in range(rounds):
            ring.prepare("vm_map_batch", (VM_PAGES,))
            (base,) = Ring.unwrap((yield from ring.submit()))
            for i, value in enumerate(values[r]):
                yield syscall("poke", base + i * PAGE_SIZE, value)
            for i, value in enumerate(values[r]):
                if (yield syscall("peek", base + i * PAGE_SIZE)) != value:
                    bad.append((base + i * PAGE_SIZE, value))
            ring.prepare("vm_unmap_batch", (base, VM_PAGES))
            Ring.unwrap((yield from ring.submit()))
            done[0] += VM_PAGES

    return program


def build_kernel(rounds: int, values: list, bad: list, done: list[int]):
    """A 4-core kernel with the 8 churn processes spawned (even pids use
    single calls, odd pids the ring)."""
    from repro.nros.kernel import Kernel
    kernel = Kernel(num_cores=VM_CORES)
    for index in range(VM_PROCS):
        factory = _vm_single if index % 2 == 0 else _vm_batched
        name = f"churn{index}"
        kernel.register_program(name, factory(rounds, values[index], bad,
                                              done))
        kernel.spawn(name)
    return kernel


def vm_churn(seed: int, rounds: int, mode: str, src: str,
             workdir: str) -> Rep:
    del src, workdir
    from repro import obs

    rng = random.Random(f"perfbench/{seed}/vm")
    values = [[[rng.getrandbits(64) for _ in range(VM_PAGES)]
               for _ in range(rounds)] for _ in range(VM_PROCS)]
    pages = VM_PROCS * rounds * VM_PAGES
    bad: list = []
    done = [0]
    mapped = obs.gauge("vspace.mapped_pages")
    points = sampling_points(pages) if mode == "e2e" else []
    meter = Speedometer()
    tracer = Tracer().install() if mode == "traced" else None
    try:
        mapped_before = mapped.value
        kernel = build_kernel(rounds, values, bad, done)
        stats = kernel.stats
        clock = time.perf_counter
        latencies: list[float] = []  # wall time of each syscall step
        if tracer is not None:
            tracer.reset()
        if points:
            meter.sample()
        start = clock()
        while True:
            syscalls = stats.syscalls
            began = clock()
            if not kernel.step(1):
                break
            ended = clock()
            if stats.syscalls != syscalls:
                latencies.append(ended - began)
            if points and done[0] >= points[0]:
                points.pop(0)
                for _ in range(SAMPLES_PER_POINT):
                    meter.sample()
        wall = clock() - start - meter.spent_s
        layers = tracer.metrics(wall) if tracer is not None else {}
    finally:
        broken = tracer.close() if tracer is not None else []
    if mode == "e2e":
        meter.sample()
    processes = list(kernel.processes.values())
    singles = sum(1 for i in range(VM_PROCS) if i % 2 == 0)
    expected_rounds = (singles * rounds * VM_PAGES
                       + (VM_PROCS - singles) * rounds)
    shootdowns = sum(p.vspace.shootdowns for p in processes)
    ring_pages = sum(len(ring.pages) for p in processes
                     for ring in p.rings.values())
    tlbs = [tlb for p in processes for tlb in p.vspace._tlbs.values()]
    problems = []
    exits = [p.exit_code for p in processes]
    if exits != [0] * VM_PROCS:
        problems.append(f"process exit codes {exits}")
    if done[0] != pages:
        problems.append(f"{done[0]} of {pages} pages unmapped")
    if bad:
        problems.append(f"{len(bad)} peeks returned another value than "
                        f"poked, first {bad[:2]}")
    if shootdowns != expected_rounds:
        problems.append(f"{shootdowns} shootdown rounds, expected "
                        f"{expected_rounds}")
    if mapped.value - mapped_before != ring_pages:
        problems.append(f"{mapped.value - mapped_before - ring_pages} "
                        f"data pages still mapped")
    if broken:
        problems.append(f"wrappers left behind: {broken}")
    fingerprint = {
        "syscalls": stats.syscalls, "bytes": stats.marshalled_bytes,
        "switches": stats.thread_switches, "ring": [stats.ring_batches,
                                                    stats.ring_sqes],
        "shootdowns": shootdowns, "tlb": [sum(t.hits for t in tlbs),
                                          sum(t.misses for t in tlbs)],
    }
    if mode == "traced":
        layers.update({
            "vspace.shootdown_rounds": shootdowns,
            "tlb.hits": fingerprint["tlb"][0],
            "tlb.misses": fingerprint["tlb"][1],
            "syscall.count": stats.syscalls,
            "ring.batches": stats.ring_batches,
            "ring.sqes": stats.ring_sqes,
            "sched.switches": stats.thread_switches,
        })
    failed = len(bad) + sum(1 for code in exits if code != 0)
    return scaled_rep(meter, done[0], wall, latencies, attempted=pages,
                      failed=failed, rss_mb=_rss_mb(), problems=problems,
                      fingerprint=fingerprint, layers=layers)


# -- the table --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    measure: object           # (seed, size, mode, src, workdir) -> Rep
    units_per_second: float   # work per second of --seconds

    def size(self, seconds: int, traced: bool) -> int:
        """Work in one repetition; a traced run does two at half size."""
        full = self.units_per_second * seconds
        return max(1, round(full / 2 if traced else full))


WORKLOADS = {
    "prove-cold": Workload(prove_cold, 0),        # one prove, whatever size
    "kv-mixed": Workload(_kv(put=0.45, delete=0.05), 2_500),     # client ops
    "kv-read": Workload(_kv(put=0.05, delete=0.0), 10_000),      # client ops
    "vm-churn": Workload(vm_churn, 4_800 / (VM_PROCS * VM_PAGES)),  # rounds
}


def build_system(workload: str, seed: int) -> None:
    """What ``setup_s`` times, in a fresh interpreter."""
    if workload == "prove-cold":
        build_prover()
    elif workload.startswith("kv-"):
        build_deployment(seed)
    else:
        build_kernel(0, [[]] * VM_PROCS, [], [0])


# -- metric names and units -------------------------------------------------

END_TO_END = {
    "setup_s": "s",
    "items_per_wall_s": "1/s",
    "item_wall_p50_ms": "ms",
    "item_wall_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {metric: "s" for metric in SPANS}
    units.update({metric: "count" for metric in COUNTS})
    units.update({f"vc.{family}_s": "s" for family in VC_FAMILIES})
    units.update({
        "smt.conflicts": "count",
        "cluster.retries": "count",
        "cluster.redirects": "count",
        "block.bytes_per_user_byte": "B/B",
        "vspace.shootdown_rounds": "count",
        "tlb.hits": "count",
        "tlb.misses": "count",
        "syscall.count": "count",
        "ring.batches": "count",
        "ring.sqes": "count",
        "sched.switches": "count",
        "unattributed_s": "s",
        "traced_wall_s": "s",
        "trace_overhead_frac": "fraction",
    })
    for op in ("get", "put"):
        for q in (50, 99):
            units[f"cluster.{op}_p{q}_sim_ns"] = "ns"
    return units


def end_to_end(setups: list[float], setup_factor: float, rep: Rep,
               scaled: bool) -> dict:
    """End-to-end metrics, at reference speed or (``scaled`` False) raw."""
    busy = rep.busy_ref_s if scaled else rep.busy_s
    items = rep.item_ref_s if scaled else rep.item_s
    return {
        "setup_s": statistics.median(setups) * (setup_factor if scaled
                                                else 1.0),
        "items_per_wall_s": rep.items / busy,
        "item_wall_p50_ms": percentile(items, 50) * 1e3,
        "item_wall_p95_ms": percentile(items, 95) * 1e3,
        "peak_rss_mb": rep.rss_mb,
    }


# -- one run ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool, src: str,
        workdir: str) -> dict:
    from repro import obs

    spec = WORKLOADS[workload]
    size = spec.size(seconds, trace)
    notes: list[str] = []
    if not trace:
        meter = Speedometer()
        setups = [measure_setup(workload, seed, src, workdir, meter)
                  for _ in range(SETUP_REPEATS)]
        setup_factor = meter.to_reference()
        rep = spec.measure(seed, size, "e2e", src, workdir)
        problems = list(rep.problems)
        if obs.bus().active:
            problems.append("obs bus was subscribed during the run")
        values = end_to_end(setups, setup_factor, rep, scaled=True)
        notes.append("raw wall-clock values: " + json.dumps(
            end_to_end(setups, setup_factor, rep, scaled=False)))
        units = END_TO_END
        attempted, failed = rep.attempted, rep.failed
    else:
        plain = spec.measure(seed, size, "plain", src, workdir)
        traced = spec.measure(seed, size, "traced", src, workdir)
        problems = plain.problems + traced.problems
        if plain.fingerprint != traced.fingerprint:
            problems.append("two same-seed repetitions differ in counts or "
                            "simulated time")
        units = per_layer_units()
        values = {metric: 0 for metric in units}
        values.update(traced.layers)
        values["trace_overhead_frac"] = traced.busy_s / plain.busy_s - 1
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    if set(values) != set(units):
        problems.append(f"metric set drifted: {sorted(set(values) ^ set(units))}")
    return {
        "problems": problems,
        "notes": notes,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
