"""Per-layer tracing of the peierls package from outside the program.

Nothing under ``src/`` is edited.  `Tracer.install` replaces every
module-level binding of a layer's public functions with a timing wrapper
and `Tracer.uninstall` restores the originals.  The modules import names
directly (``from .special import elliptic_e``), so the binding in the
calling module is replaced too: ``peierls.landscape.elliptic_e`` as well
as ``peierls.special.elliptic_e``.

A call that enters a layer from another one is a frame on one stack.
Calls inside a layer pass straight through, except for the few functions
in `DETAILED`, which a per-layer metric counts or times on their own.
Frames are not stored; they are folded into per-(function, entry)
counters of calls, busy time, self time and raised exceptions, because
leaf functions are called hundreds of thousands of times per session.
``entry`` is the function through which the current layer was entered,
so time spent in ``kink_matrix`` under ``propagate_kink`` is kept apart
from the same function under ``kink_spectrum``.  Only the CLI boundary
is kept as spans: one span per ``cli.main`` call, with one aggregated
child record per library function called from the CLI layer; the spans
of one session share its number.

Calls made inside worker processes (``landscape --workers 2``) are not
seen; the parent counts the wait for its pool as landscape self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from collections import Counter
from typing import Any, Callable

# module -> layer; config belongs to the cli layer
LAYER_OF_MODULE = {
    "special": "special",
    "model": "model",
    "algebra": "algebra",
    "landscape": "landscape",
    "dynamics": "dynamics",
    "kink": "kink",
    "validate": "validate",
    "config": "cli",
    "cli": "cli",
}

# functions traced also when called from their own layer
DETAILED = frozenset({
    "config.load_config",
    "landscape.total_density",
    "landscape.total_gradient",
    "dynamics.ode_rhs",
    "dynamics.script_p",
    "kink.kink_matrix",
    "kink.bond_order",
    "kink.kink_position",
})

# frame slots
_NAME, _LAYER, _ENTRY, _CHILD, _AGG = range(5)
# slots of a (function, entry) counter
CALLS, BUSY, SELF, ERRORS = range(4)


class Tracer:
    """Counters and CLI-boundary spans for one traced session at a time."""

    def __init__(self) -> None:
        self.stack: list[list[Any]] = []
        # (function, entry) -> [calls, busy_s, self_s, errors]
        self.stats: dict[tuple[str, str], list[float]] = {}
        # (callee layer, caller function) -> calls crossing into the layer
        self.crossings: Counter[tuple[str, str]] = Counter()
        self.layer_busy: Counter[str] = Counter()
        self.spans: list[dict[str, Any]] = []
        self._open: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.session = 0
        self._span_ids = itertools.count(1)  # unique over the whole run
        self._origin = time.perf_counter()

    def reset(self, session: int) -> None:
        """Start a new session; the containers are cleared in place because
        the installed wrappers hold references to them."""
        self.stack.clear()
        self.stats.clear()
        self.crossings.clear()
        self.layer_busy.clear()
        self.spans.clear()
        self._open.clear()
        self.session = session

    def install(self) -> None:
        modules = {m: importlib.import_module(f"peierls.{m}") for m in LAYER_OF_MODULE}
        wrappers: dict[int, Callable[..., Any]] = {}
        for mod_name, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{mod_name}.{attr}", LAYER_OF_MODULE[mod_name])
        package = importlib.import_module("peierls")
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        stack, stats, crossings = self.stack, self.stats, self.crossings
        layer_busy, open_ = self.layer_busy, self._open
        clock = time.perf_counter
        tracer = self
        detailed = name in DETAILED

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            if parent is None or parent[_LAYER] != layer:
                entry = name
                if parent is not None:
                    crossings[layer, parent[_NAME]] += 1
            elif detailed:
                entry = parent[_ENTRY]
            else:
                return fn(*args, **kwargs)
            outer_call = not open_[name]  # recursion counts busy time once
            outer_layer = not open_[layer]
            open_[name] += 1
            open_[layer] += 1
            frame = [name, layer, entry, 0.0, {} if parent is None else None]
            stack.append(frame)
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                open_[name] -= 1
                open_[layer] -= 1
                st = stats.get((name, entry))
                if st is None:
                    st = stats[name, entry] = [0, 0.0, 0.0, 0]
                st[CALLS] += 1
                if outer_call:
                    st[BUSY] += elapsed
                st[SELF] += elapsed - frame[_CHILD]
                st[ERRORS] += failed
                if outer_layer:
                    layer_busy[layer] += elapsed
                if parent is not None:
                    parent[_CHILD] += elapsed
                    if parent[_AGG] is not None:
                        agg = parent[_AGG].setdefault(name, [0, 0.0, start, end])
                        agg[0] += 1
                        agg[1] += elapsed
                        agg[3] = end
                else:
                    tracer._close_span(frame, args, start, end)

        return traced

    def _close_span(self, frame: list[Any], args: tuple[Any, ...], start: float, end: float) -> None:
        origin = self._origin
        span_id = next(self._span_ids)
        argv = args[0] if args else None  # cli.main(argv) is the only root
        self.spans.append({
            "session": self.session,
            "id": span_id,
            "parent": None,
            "name": frame[_NAME],
            "command": argv[0] if isinstance(argv, (list, tuple)) and argv else "",
            "start_s": start - origin,
            "end_s": end - origin,
        })
        for child, (calls, busy, first, last) in frame[_AGG].items():
            self.spans.append({
                "session": self.session,
                "id": next(self._span_ids),
                "parent": span_id,
                "name": child,
                "calls": calls,
                "busy_s": busy,
                "start_s": first - origin,
                "end_s": last - origin,
            })

    # -- aggregate queries -------------------------------------------------

    def stat(self, slot: int, function: str, entry: str | None = None) -> float:
        """One counter slot of a function, summed over its entries or for one."""
        return sum(st[slot] for (f, e), st in self.stats.items() if f == function and entry in (None, e))

    def layer_self(self, layer: str, entry: str | None = None) -> float:
        return sum(
            st[SELF]
            for (f, e), st in self.stats.items()
            if LAYER_OF_MODULE[f.split(".", 1)[0]] == layer and entry in (None, e)
        )

    def layer_calls(self, layer: str, caller: str | None = None) -> int:
        return sum(n for (callee, c), n in self.crossings.items() if callee == layer and caller in (None, c))


# -- per-layer metrics of one traced session ---------------------------------

PER_LAYER_UNITS = {
    "special.calls": "count",
    "special.busy_s": "s",
    "special.us_per_call": "us",
    "special.calls_per_kernel": "calls/kernel",
    "model.calls": "count",
    "model.busy_s": "s",
    "algebra.calls": "count",
    "algebra.busy_s": "s",
    "landscape.grid_self_s": "s",
    "landscape.us_per_cell": "us",
    "landscape.domain_cells": "count",
    "landscape.gradient_calls_per_seed": "calls/seed",
    "landscape.ms_per_seed": "ms",
    "dynamics.rk4_steps": "count",
    "dynamics.kernel_calls_per_step": "calls/step",
    "dynamics.us_per_step": "us",
    "dynamics.self_s": "s",
    "kink.steps": "count",
    "kink.ms_per_step": "ms",
    "kink.propagate_self_s": "s",
    "kink.bond_order_s": "s",
    "kink.position_s": "s",
    "kink.matrix_builds_per_step": "builds/step",
    "kink.anchor_hops": "count",
    "kink.spectrum_ms_per_call": "ms",
    "kink.matrix_ms_per_call": "ms",
    "validate.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "config.load_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, notes: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of the session just traced; idle layers read 0.

    ``notes`` are the work counts the study read from the CLI outputs:
    ``cells``, ``seeds``, ``kink_steps``, ``anchor_hops`` and
    ``bytes_written``.  ``trace.overhead_s`` needs untraced sessions and
    is added by the caller.
    """
    grid, search = "landscape.landscape_grid", "landscape.find_critical_points"
    propagate, spectrum = "kink.propagate_kink", "kink.kink_spectrum"
    kernel = "dynamics.script_p"
    rk4_steps = t.stat(CALLS, "dynamics.ode_rhs") / 4  # four RK4 stages per step
    kink_steps = notes.get("kink_steps", 0)
    seeds = notes.get("seeds", 0)
    special_calls = t.layer_calls("special")
    return {
        "special.calls": special_calls,
        "special.busy_s": t.layer_busy["special"],
        "special.us_per_call": 1e6 * _ratio(t.layer_busy["special"], special_calls),
        "special.calls_per_kernel": _ratio(t.layer_calls("special", caller=kernel), t.stat(CALLS, kernel)),
        "model.calls": t.layer_calls("model"),
        "model.busy_s": t.layer_busy["model"],
        "algebra.calls": t.layer_calls("algebra"),
        "algebra.busy_s": t.layer_busy["algebra"],
        "landscape.grid_self_s": t.layer_self("landscape", entry=grid),
        "landscape.us_per_cell": 1e6 * _ratio(t.stat(BUSY, grid), notes.get("cells", 0)),
        "landscape.domain_cells": t.stat(ERRORS, "landscape.total_density", entry=grid),
        "landscape.gradient_calls_per_seed": _ratio(t.stat(CALLS, "landscape.total_gradient", entry=search), seeds),
        "landscape.ms_per_seed": 1e3 * _ratio(t.stat(BUSY, search), seeds),
        "dynamics.rk4_steps": rk4_steps,
        "dynamics.kernel_calls_per_step": _ratio(t.stat(CALLS, kernel), rk4_steps),
        "dynamics.us_per_step": 1e6 * _ratio(t.stat(BUSY, "dynamics.integrate"), rk4_steps),
        "dynamics.self_s": t.layer_self("dynamics"),
        "kink.steps": kink_steps,
        "kink.ms_per_step": 1e3 * _ratio(t.stat(BUSY, propagate), kink_steps),
        "kink.propagate_self_s": t.stat(SELF, propagate),
        "kink.bond_order_s": t.stat(BUSY, "kink.bond_order", entry=propagate),
        "kink.position_s": t.stat(BUSY, "kink.kink_position", entry=propagate),
        "kink.matrix_builds_per_step": _ratio(t.stat(CALLS, "kink.kink_matrix", entry=propagate), kink_steps),
        "kink.anchor_hops": notes.get("anchor_hops", 0),
        "kink.spectrum_ms_per_call": 1e3 * _ratio(t.stat(BUSY, spectrum), t.stat(CALLS, spectrum)),
        "kink.matrix_ms_per_call": 1e3 * _ratio(
            t.stat(BUSY, "kink.kink_matrix", entry=spectrum), t.stat(CALLS, "kink.kink_matrix", entry=spectrum)
        ),
        "validate.busy_s": t.layer_busy["validate"],
        "cli.self_s": t.layer_self("cli"),
        "cli.bytes_written": notes.get("bytes_written", 0),
        "config.load_s": t.stat(BUSY, "config.load_config"),
    }
