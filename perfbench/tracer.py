"""Per-layer timing from outside the library.

A Tracer replaces each traced function with a timing wrapper in every
``lorentzlab`` module namespace that binds it, which is where the library
looks it up at call time; for a class it wraps ``__init__`` on the class.
``uninstall`` puts the originals back.  Only traced runs install a Tracer.

For each layer it keeps the number of calls, the total time of its outermost
calls (a call nested in another of the same layer is not counted twice) and
its self time: total time minus the time of wrapped calls nested directly in
it.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, layer name); the layer name is the metric prefix.
TARGETS = [
    ("lorentzlab.associate", "norm", "associate.norm"),
    ("lorentzlab.associate", "duality_oracle", "associate.duality_oracle"),
    ("lorentzlab.associate", "assoc_generalized", "associate.assoc_generalized"),
    ("lorentzlab.associate", "lpq_star_norm", "associate.lpq_star_norm"),
    ("lorentzlab.associate", "embedding_criterion", "associate.embedding_criterion"),
    ("lorentzlab.funcs", "pointwise_merge", "funcs.pointwise_merge"),
    ("lorentzlab.rearrangement", "decreasing_rearrangement", "rearrangement.decreasing_rearrangement"),
    ("lorentzlab.hardy", "Zeta1Fn", "hardy.Zeta1Fn"),
    ("lorentzlab.hardy", "ZetaFn", "hardy.ZetaFn"),
    ("lorentzlab.hardy", "lhs_rhs", "hardy.lhs_rhs"),
    ("lorentzlab.hardy", "a1_constant", "hardy.a1_constant"),
    ("lorentzlab.hardy", "a2_constant", "hardy.a2_constant"),
    ("lorentzlab.weights", "product_cumulative", "weights.product_cumulative"),
    ("lorentzlab.measures", "fit_representation_measure", "measures.fit_representation_measure"),
    ("lorentzlab.conditions", "quasiconcave_check", "conditions.quasiconcave_check"),
    ("lorentzlab.conditions", "sigma", "conditions.sigma"),
    ("lorentzlab.cli", "main", "cli.main"),
]


class _Layer:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.layers = {name: _Layer() for _, _, name in TARGETS}
        self._stack: list[list[float]] = []  # child time of each open call
        self._patches: list[tuple] = []
        self._norm_keys: set = set()
        self._grid_keys: dict = {}
        self._default_grid = None  # lorentzlab's DEFAULT_GRID, once installed
        self.norm_repeats = 0
        self.fit_lookups = 0
        self.fit_misses = 0

    # -- accounting -------------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None):
        layer = self.layers[name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            layer.active += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                layer.active -= 1
                layer.calls += 1
                if not layer.active:
                    layer.total += dt
                layer.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _on_norm(self, args, kwargs) -> None:
        spec, g = args[0], args[1]
        grid = args[2] if len(args) > 2 else kwargs.get("grid", self._default_grid)
        fn = getattr(g, "fn", g)
        grid_key = self._grid_keys.get(id(grid))
        if grid_key is None:
            grid_key = self._grid_keys[id(grid)] = json.dumps(grid.to_json(), sort_keys=True)
        key = (repr(spec), fn.breakpoints.tobytes(), fn.values.tobytes(), fn.right_value, grid_key)
        if key in self._norm_keys:
            self.norm_repeats += 1
        else:
            self._norm_keys.add(key)

    def _on_fit_lookup(self, args, kwargs) -> None:
        if kwargs.get("nu") is None:
            self.fit_lookups += 1

    def _on_fit(self, args, kwargs) -> None:
        # a fit made for the associate fit cache is a cache miss
        if sys._getframe(2).f_code.co_name == "_fit_nu_for_phi":
            self.fit_misses += 1

    # -- patching -----------------------------------------------------------------------

    def install(self) -> None:
        import importlib

        hooks = {
            "associate.norm": self._on_norm,
            "associate.assoc_generalized": self._on_fit_lookup,
            "associate.embedding_criterion": self._on_fit_lookup,
            "measures.fit_representation_measure": self._on_fit,
        }
        owners = {mod_name: importlib.import_module(mod_name) for mod_name, _, _ in TARGETS}
        self._default_grid = owners["lorentzlab.associate"].DEFAULT_GRID
        modules = [m for n, m in sys.modules.items() if n == "lorentzlab" or n.startswith("lorentzlab.")]
        for mod_name, attr, name in TARGETS:
            orig = getattr(owners[mod_name], attr)
            if isinstance(orig, type):
                init = orig.__dict__["__init__"]
                self._patches.append((orig, "__init__", init))
                setattr(orig, "__init__", self._wrap(name, init))
                continue
            wrapper = self._wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # -- results --------------------------------------------------------------------------

    def table(self) -> dict:
        return {
            name: {"calls": l.calls, "ms": l.total * 1e3, "self_ms": l.self_time * 1e3}
            for name, l in self.layers.items()
        }

    def metrics(self) -> dict:
        """Every per-layer metric this tracer measures, by name."""
        out = {}
        for name, l in self.layers.items():
            out[f"{name}.calls"] = (l.calls, "count")
            out[f"{name}.ms"] = (l.total * 1e3, "ms")
            out[f"{name}.self_ms"] = (l.self_time * 1e3, "ms")
        out["associate.norm.repeat_calls"] = (self.norm_repeats, "count")
        hits = self.fit_lookups - self.fit_misses
        out["associate.fit_cache.hit_share"] = (hits / self.fit_lookups if self.fit_lookups else 0.0, "share")
        return out
