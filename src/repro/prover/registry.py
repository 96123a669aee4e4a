"""Registry of named proof builders.

VC objects close over goal builders and scenario caches, so they cannot be
pickled across a process boundary.  Worker processes therefore receive only
``(builder name, kwargs, vc name)`` and rebuild their assigned VCs locally:
the builder name resolves — lazily, so workers need no imports beyond this
module — to a callable returning a :class:`repro.verif.engine.ProofEngine`
(or a plain list of VCs), and the VC is looked up by name in the rebuilt
population.

Builders registered at runtime (tests, ad-hoc populations) also work with
the process pool on platforms whose default start method is ``fork``, since
the child inherits this module's state; the scheduler runs a VC inline,
in its own process, whenever it is not reconstructible.
"""

from __future__ import annotations

import importlib
from typing import Callable

#: Builders shipped with the repository, resolved on first use.
_LAZY: dict[str, tuple[str, str]] = {
    "pt-refinement": ("repro.core.refine.proof", "build_proof"),
}

_BUILDERS: dict[str, Callable] = {}

#: Per-process memo of rebuilt populations, so a worker discharging many
#: VCs of one population pays the build cost once.
_POPULATIONS: dict[tuple, dict] = {}


def register_builder(name: str, builder: Callable) -> None:
    """Register `builder` under `name` (overwrites any previous binding)."""
    _BUILDERS[name] = builder
    _POPULATIONS.clear()


def get_builder(name: str) -> Callable:
    builder = _BUILDERS.get(name)
    if builder is not None:
        return builder
    lazy = _LAZY.get(name)
    if lazy is None:
        raise KeyError(
            f"no proof builder registered under {name!r}; "
            f"known: {sorted(set(_BUILDERS) | set(_LAZY))}"
        )
    module, attr = lazy
    builder = getattr(importlib.import_module(module), attr)
    _BUILDERS[name] = builder
    return builder


def builder_names() -> list[str]:
    return sorted(set(_BUILDERS) | set(_LAZY))


def _freeze(kwargs: dict) -> tuple:
    return tuple(sorted(kwargs.items()))


def rebuild_population(name: str, kwargs: dict) -> dict:
    """Build (once per process) and return ``{vc name: VC}`` for the named
    builder called with `kwargs`."""
    key = (name, _freeze(kwargs))
    population = _POPULATIONS.get(key)
    if population is None:
        built = get_builder(name)(**kwargs)
        vcs = built.vcs() if hasattr(built, "vcs") else list(built)
        population = {vc.name: vc for vc in vcs}
        _POPULATIONS[key] = population
    return population


def rebuild_vc(name: str, kwargs: dict, vc_name: str):
    """Rebuild one VC by name; raises KeyError if the builder's population
    does not contain it (the caller then falls back to in-process work)."""
    population = rebuild_population(name, kwargs)
    vc = population.get(vc_name)
    if vc is None:
        raise KeyError(
            f"builder {name!r} produced no VC named {vc_name!r}"
        )
    return vc
