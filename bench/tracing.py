"""Per-layer tracing from outside the program.

The tracer replaces the package's functions with timing wrappers while
it is installed and puts the originals back when it is removed, so the
untraced runs execute the program exactly as shipped. A wrapper is
bound wherever a caller looks the function up: on its own module, on
every other package module that imported it by name (for example
rcppo._gae_arrays and baselines.ppo_policy_loss), and on the problem
classes for envkit methods.

Each call becomes a span (name, start, end, parent). A span's self time
is its duration minus the time of the traced spans nested in it.
Aggregates are kept per span name; the first SPAN_CAP spans are kept
in memory and written out at the end of the run.
"""

from __future__ import annotations

import copy
import inspect
import os
import time

from reachbudget import approx, augment, baselines, envkit, reachval, rcppo
from reachbudget.envkit import base, noise, pendulum, tabular, windfield

LAYERS = ("envkit", "augment", "approx", "reachval", "rcppo", "baselines")
SPAN_CAP = 50_000

_MODULES = {
    # the package module re-exports the builders; it is rebound, not scanned
    "envkit": (envkit, base, noise, pendulum, tabular, windfield),
    "augment": (augment,),
    "approx": (approx,),
    "reachval": (reachval,),
    "rcppo": (rcppo,),
    "baselines": (baselines,),
}
# private functions that the per-layer metrics name
_PRIVATE = {
    (reachval, "_gae_arrays"): "reachval.gae",
    (baselines, "_reward_gae"): "baselines.reward_gae",
    (baselines, "_enumerate_best"): "baselines.enumerate_best",
}
_SETS = ("goal_margin", "in_goal", "in_avoid")
_TRACED_METHODS = {
    "envkit": ("step", "cost", "step_and_cost", "sample_initial", *_SETS,
               "avoid_margin", "goal_distance", "clip_action"),
    "reachval": ("value_at",),
}


class Stat:
    __slots__ = ("calls", "rows", "bytes", "value_evals", "self_s")

    def __init__(self) -> None:
        self.calls = self.rows = self.bytes = self.value_evals = 0
        self.self_s = 0.0


def _rows(a) -> int:
    shape = getattr(a, "shape", ())
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []
        self.dropped = 0
        self._open: list[list] = []  # [span index, child seconds] per open span
        self._targets = self._find_targets()
        self._wrappers = {id(orig): self._wrap(orig, name) for orig, name in self._targets}
        self._saved: list[tuple[object, str, object]] = []

    # -- what gets wrapped ------------------------------------------------

    @staticmethod
    def _find_targets():
        targets = []
        for layer, mods in _MODULES.items():
            for mod in mods:
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                        if not attr.startswith("_"):
                            targets.append((obj, f"{layer}.{attr}"))
                        elif (mod, attr) in _PRIVATE:
                            targets.append((obj, _PRIVATE[(mod, attr)]))
                    elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                        for meth in _TRACED_METHODS.get(layer, ()):
                            fn = obj.__dict__.get(meth)
                            if inspect.isfunction(fn):
                                name = "envkit.sets" if meth in _SETS else f"{layer}.{meth}"
                                targets.append((fn, name))
        return targets

    def _owners(self):
        """(owner, attribute) pairs whose value is a traced function."""
        wanted = self._wrappers
        for mods in _MODULES.values():
            for mod in mods:
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wanted:
                        yield mod, attr
                    elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                        for meth, fn in list(vars(obj).items()):
                            if id(fn) in wanted:
                                yield obj, meth

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr in list(self._owners()):
            orig = getattr(owner, attr) if inspect.ismodule(owner) else vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrappers[id(orig)])

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    # -- spans ------------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _wrap(self, orig, name: str):
        tracer = self
        clock = time.perf_counter
        opened = self._open
        spans = self.spans
        if name == "approx.mlp_forward":  # split by batch size
            stat = None
            single, batch = self._stat(name + ".single"), self._stat(name + ".batch")
        else:
            stat = self._stat(name)
        label = name

        def wrapper(*args, **kwargs):
            st = stat
            if label == "approx.mlp_forward":
                rows = _rows(args[1] if len(args) > 1 else kwargs["x"])
                st = single if rows == 1 else batch
                st.rows += rows
            elif label == "envkit.step_and_cost":
                st.rows += _rows(args[2] if len(args) > 2 else kwargs["u"])
            elif label == "approx.load_checkpoint":
                st.bytes += os.path.getsize(args[0] if args else kwargs["path"])
            elif label == "rcppo.bisect_z_star":
                args = (_counting(args[0], st), *args[1:])
            parent = opened[-1][0] if opened else -1
            if len(spans) < SPAN_CAP:
                idx = len(spans)
                spans.append([label, 0.0, 0.0, parent])
            else:
                idx = -1
                tracer.dropped += 1
            frame = [idx, 0.0]
            opened.append(frame)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                opened.pop()
                dur = t1 - t0
                st.calls += 1
                st.self_s += dur - frame[1]
                if opened:
                    opened[-1][1] += dur
                if idx >= 0:
                    spans[idx][1] = t0
                    spans[idx][2] = t1

        wrapper.__wrapped__ = orig
        return wrapper

    # -- results ----------------------------------------------------------

    def take(self) -> dict[str, Stat]:
        """The aggregates so far; the live ones start again from zero."""
        out = {}
        for name, st in self.stats.items():
            out[name] = copy.copy(st)
            st.__init__()
        return out

    def dump(self, phases: dict[str, dict[str, Stat]]) -> dict:
        return {
            "stats": {
                phase: {name: {k: getattr(st, k) for k in Stat.__slots__}
                        for name, st in sorted(stats.items()) if st.calls}
                for phase, stats in phases.items()
            },
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }


def layer_self_s(stats: dict[str, Stat]) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for name, st in stats.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += st.self_s
    return out


def _counting(value_fn, st: Stat):
    def counted(*args):
        st.value_evals += 1
        return value_fn(*args)

    return counted
