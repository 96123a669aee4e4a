"""The `scheduler` verification conditions.

Three families, all discharged through the existing prover scheduler
(category/group ``scheduler``):

* **spec obligations** — bounded exploration of
  :mod:`repro.verif.schedspec`'s state machine covers the *entire*
  reachable quotient space (per-core renormalization makes it finite),
  every invariant holds in every state, and each invariant is
  *inductive*: checked over the reachable states plus perturbed
  variants that satisfy the invariant but were never visited.  A
  vacuity VC hand-builds one broken state per invariant (double-queued
  thread, stale weight cache, blown spread, RT waiting behind fair,
  ...) and demands each violates its own invariant.  The exploration
  and these three factories are the shared
  :class:`~repro.verif.explore.FiniteModel` scaffold;
* **conformance obligations** — seeded operation traces drive the real
  :class:`~repro.nros.sched.scheduler.Scheduler` and check
  :meth:`audit` (the runtime mirror of the spec invariants) after
  every operation, and the implementation's pick agrees with the
  spec's policy (max-priority RT unless throttled, else min-vruntime
  fair);
* **liveness-flavoured obligations** — bounded starvation freedom
  (a fair thread runs within ``RT_THROTTLE_STREAK + 1`` picks of any
  core under an RT busy loop), migration preserving the invariants,
  and ``forget`` purging queues.

This module is proof-layer code: it may use seeded randomness and
mutate scratch state freely; the spec it checks stays pure.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.verif import schedspec as ss
from repro.verif.explore import FiniteModel
from repro.verif.vc import VC

#: Exploration cap — comfortably above the measured reachable-space
#: size (7 451 states for the two bounded configurations), so hitting
#: the cap is itself a spec-regression signal (the space must stay
#: finite for the coverage claim to mean anything).
MAX_STATES = 20_000

_TRACE_SEEDS = (1, 2, 3)
_TRACE_OPS = 160


def _perturbed_states(states, limit: int = 400):
    """Variants of reachable states that bounded exploration never
    visits: bumped vruntimes and RT streaks, re-canonicalized so the
    representation stays consistent.  The inductive VCs keep only the
    ones satisfying every invariant."""
    rng = random.Random(20_260_808)
    sample = states[::max(1, len(states) // limit)]
    variants = []
    for state in sample:
        which = rng.randrange(3)
        if which == 0 and state.threads:
            victim = rng.choice(state.threads)
            if victim.kind == ss.FAIR and victim.state != ss.EXITED:
                bumped = replace(victim,
                                 vruntime=victim.vruntime
                                 + rng.randint(1, 2))
                threads = tuple(bumped if t.tid == victim.tid else t
                                for t in state.threads)
                variants.append(ss.canonical(replace(state,
                                                     threads=threads)))
        elif which == 1:
            streak = tuple(rng.randint(0, ss.RT_STREAK_LIMIT)
                           for _ in range(state.ncores))
            variants.append(replace(state, rt_streak=streak))
        else:
            variants.append(state)
    return variants


def _broken_states():
    """Hand-built invariant violations, one per invariant, each
    violating the invariant it is filed under (the vacuity guard)."""
    base = ss.smp_config()
    t1 = ss.thread_by_tid(base, 1)
    # tid 1 queued on both cores
    double = replace(base, queues=(base.queues[0],
                                   base.queues[1] + (1,)))
    # weight cache out of sync with members
    stale = replace(base, weight_sums=(base.weight_sums[0] + 1,
                                       base.weight_sums[1]))
    # one queued fair thread lapped the field
    lapped_threads = tuple(
        replace(t, vruntime=ss.SPREAD_LIMIT + 50)
        if t.tid == 1 else t for t in base.threads)
    lapped = replace(base, threads=lapped_threads)
    # a fair thread running past queued RT work with a live streak
    running_threads = tuple(
        replace(t, state=ss.RUNNING) if t.tid == 1 else t
        for t in base.threads)
    rt_wait = replace(base, threads=running_threads,
                      queues=(tuple(tid for tid in base.queues[0]
                                    if tid != 1), base.queues[1]),
                      weight_sums=(base.weight_sums[0] - t1.weight,
                                   base.weight_sums[1]),
                      ready_counts=(base.ready_counts[0] - 1,
                                    base.ready_counts[1]),
                      rt_streak=(1, 0))
    # a lone fair thread whose vruntime escaped the renormalized window
    escaped = replace(base, threads=tuple(
        replace(t, vruntime=ss.SPREAD_LIMIT + ss.QUANTUM * ss.MAX_WEIGHT
                + ss.BONUS + 1) if t.tid == 4 else t
        for t in base.threads))
    # a running fair thread pulled ahead of its core's queued minimum
    ahead = ss.canonical(replace(base, threads=tuple(
        replace(t, state=ss.RUNNING, vruntime=ss.BONUS + 1)
        if t.tid == 2 else t for t in base.threads)))
    # a blocked fair thread parked above the spread window
    parked = ss.canonical(replace(base, threads=tuple(
        replace(t, state=ss.BLOCKED, vruntime=ss.SPREAD_LIMIT + 1)
        if t.tid == 2 else t for t in base.threads)))
    return {
        "one_place": double,
        "weight_sums": stale,
        "spread_bounded": lapped,
        "vruntime_bounded": escaped,
        "rt_first": rt_wait,
        "running_lag": ahead,
        "blocked_bounded": parked,
    }


# -- conformance: the real Scheduler under seeded op traces -------------------


def _make_thread(name: str):
    from repro.nros.proc.process import Thread

    class _Proc:
        def __init__(self) -> None:
            self.name = "schedproof"
            self.pid = 0

    def gen():
        yield

    return Thread(_Proc(), gen(), name=name)


def _drive_trace(seed: int, num_cores: int = 2,
                 ops: int = _TRACE_OPS):
    """Random ready/pick/block/wake/forget/set_policy trace; returns a
    counterexample tuple on the first audit violation, else None.

    Picks model the kernel's usage: at most one running thread per
    core (a core only asks for the next thread after descheduling the
    previous one) — the regime the spec's pick transition and the
    audit's rt_first mirror both assume."""
    from repro.nros.proc.process import BlockReason
    from repro.nros.sched.scheduler import Scheduler

    rng = random.Random(seed)
    sched = Scheduler(num_cores)
    spawned = 0
    ready: list = []
    running: list = []       # (thread, core) pairs
    blocked: list = []

    def spawn():
        nonlocal spawned
        spawned += 1
        thread = _make_thread(f"t{spawned}")
        kind = rng.randrange(4)
        if kind == 0:
            sched.set_nice(thread, rng.choice((-10, -5, 0, 5, 10)))
        elif kind == 1:
            sched.set_policy(thread, "fifo" if rng.random() < 0.5
                             else "rr", rt_prio=rng.randint(1, 99))
        sched.ready(thread)
        ready.append(thread)

    for _ in range(3):
        spawn()
    for step in range(ops):
        choice = rng.randrange(10)
        if choice <= 1 and spawned < 12:
            spawn()
        elif choice <= 4:
            busy = {core for (_t, core) in running}
            free = [core for core in range(num_cores)
                    if core not in busy]
            if free:
                core = rng.choice(free)
                thread = sched.next_thread(core=core)
                if thread is not None:
                    ready.remove(thread)
                    running.append((thread, core))
        elif choice <= 6 and running:
            thread, _core = running.pop(rng.randrange(len(running)))
            sched.ready(thread)
            ready.append(thread)
        elif choice == 7 and running:
            thread, _core = running.pop(rng.randrange(len(running)))
            sched.block(thread, BlockReason("sleep", step))
            blocked.append(thread)
        elif choice == 8 and blocked:
            thread = blocked.pop(rng.randrange(len(blocked)))
            sched.wake(thread)
            ready.append(thread)
        elif choice == 9:
            pools = [pool for pool in (ready, running, blocked) if pool]
            if pools:
                pool = rng.choice(pools)
                item = pool.pop(rng.randrange(len(pool)))
                sched.forget(item[0] if pool is running else item)
        problems = sched.audit()
        if problems:
            return (f"seed={seed}", f"step={step}", problems[0])
    return None


def _impl_trace_vc() -> VC:
    def check():
        for seed in _TRACE_SEEDS:
            counterexample = _drive_trace(seed)
            if counterexample is not None:
                return counterexample
        return None

    return VC(
        name="sched-impl-trace-invariants",
        category="scheduler",
        check=check,
        description="the implementation satisfies the spec invariants "
                    "(via Scheduler.audit) after every operation of "
                    "seeded random traces",
    )


def _impl_pick_policy_vc() -> VC:
    def check():
        from repro.nros.sched.entity import RT_THROTTLE_STREAK
        from repro.nros.sched.scheduler import Scheduler

        for seed in _TRACE_SEEDS:
            rng = random.Random(seed * 101)
            sched = Scheduler(1)
            threads = []
            for i in range(6):
                thread = _make_thread(f"p{i}")
                if i < 2:
                    sched.set_policy(thread, "fifo",
                                     rt_prio=rng.randint(1, 99))
                else:
                    sched.set_nice(thread, rng.choice((-5, 0, 5)))
                sched.ready(thread)
                threads.append(thread)
            for step in range(60):
                queue = sched._queues[0]
                top_rt = queue.top_rt_prio()
                fair_min = min(
                    (v for (v, _s, _w) in queue._valid.values()),
                    default=None)
                throttled = sched._rt_streak[0] >= RT_THROTTLE_STREAK
                picked = sched.next_thread(core=0)
                if picked is None:
                    break
                ent = sched._entities[picked.tid]
                if top_rt is not None and not (throttled
                                               and fair_min is not None):
                    if not ent.is_rt or ent.rt_prio != top_rt:
                        return (f"seed={seed}", f"step={step}",
                                "expected max-priority RT pick",
                                ent.policy.value, ent.rt_prio, top_rt)
                elif fair_min is not None:
                    if ent.is_rt or ent.vruntime != fair_min:
                        return (f"seed={seed}", f"step={step}",
                                "expected min-vruntime fair pick",
                                ent.vruntime, fair_min)
                sched.ready(picked)
        return None

    return VC(
        name="sched-impl-pick-policy",
        category="scheduler",
        check=check,
        description="every pick agrees with the spec's policy: "
                    "max-priority RT unless throttled, else the "
                    "min-vruntime fair thread",
    )


def _impl_starvation_vc() -> VC:
    def check():
        from repro.nros.sched.entity import RT_THROTTLE_STREAK
        from repro.nros.sched.scheduler import Scheduler

        sched = Scheduler(1)
        hog = _make_thread("hog")
        starved = _make_thread("starved")
        sched.set_policy(hog, "fifo", rt_prio=99)
        sched.set_nice(starved, 10)
        sched.ready(hog)
        sched.ready(starved)
        waited = 0
        for _ in range(6 * (RT_THROTTLE_STREAK + 1)):
            picked = sched.next_thread(core=0)
            if picked is starved:
                waited = 0
            else:
                waited += 1
                if waited > RT_THROTTLE_STREAK:
                    return ("fair thread waited past the throttle",
                            waited)
            sched.ready(picked)
        return None

    return VC(
        name="sched-impl-fair-starvation-free",
        category="scheduler",
        check=check,
        description="bounded starvation freedom: under an RT busy "
                    "loop the fair thread runs at least every "
                    "RT_THROTTLE_STREAK + 1 picks",
    )


def _impl_migration_vc() -> VC:
    def check():
        from repro.nros.sched.scheduler import Scheduler

        sched = Scheduler(2)
        threads = [_make_thread(f"m{i}") for i in range(6)]
        for thread in threads:
            sched.ready(thread)
        for thread in threads:
            if sched.core_of(thread) == 1:
                sched.forget(thread)
        for _ in range(120):
            picked = sched.next_thread()
            if picked is None:
                break
            sched.ready(picked)
            problems = sched.audit()
            if problems:
                return ("audit after balancing", problems[0])
        if sched.migrations < 1:
            return ("imbalance never balanced", sched.migrations)
        return None

    return VC(
        name="sched-impl-migration-invariants",
        category="scheduler",
        check=check,
        description="periodic load balancing migrates threads and "
                    "preserves every state invariant",
    )


def _impl_forget_vc() -> VC:
    def check():
        from repro.nros.sched.scheduler import Scheduler

        sched = Scheduler(2)
        threads = [_make_thread(f"f{i}") for i in range(5)]
        for thread in threads:
            sched.ready(thread)
        for thread in threads:
            sched.forget(thread)
        if sched.has_runnable():
            return ("has_runnable after forgetting everything",
                    sched.runnable_count())
        if sched.next_thread() is not None:
            return ("a forgotten thread was picked",)
        problems = sched.audit()
        if problems:
            return ("audit after forget", problems[0])
        return None

    return VC(
        name="sched-impl-forget-purges",
        category="scheduler",
        check=check,
        description="forget purges queued threads (the seed left them "
                    "enqueued until popped) and has_runnable stays "
                    "consistent",
    )


def scheduler_vcs() -> list[VC]:
    """The scheduler VC family (group ``scheduler``)."""
    model = FiniteModel(ss.sched_machine, "scheduler", MAX_STATES)
    vcs = [model.explored_vc(
        "sched-spec-explored",
        "bounded exploration covers the finite scheduler state space "
        "with every invariant holding")]
    for invariant in ss.INVARIANTS:
        vcs.append(model.inductive_vc(
            invariant,
            f"sched-spec-inductive-{invariant.replace('_', '-')}",
            f"scheduler invariant {invariant} is inductive over "
            f"reachable + perturbed states",
            extra_states=_perturbed_states))
    vcs.append(model.vacuity_vc(
        _broken_states, "sched-spec-detects-violations",
        "hand-broken states (double-queue, stale caches, blown spread, "
        "escaped vruntime, RT behind fair, running lag, parked sleeper) "
        "each violate their own invariant — none is vacuous"))
    vcs.append(_impl_trace_vc())
    vcs.append(_impl_pick_policy_vc())
    vcs.append(_impl_starvation_vc())
    vcs.append(_impl_migration_vc())
    vcs.append(_impl_forget_vc())
    return vcs
