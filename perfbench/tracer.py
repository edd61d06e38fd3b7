"""Outside-in call tracing for the benchmark's traced runs.

The tracer wraps the public functions listed in ``TRACED`` and replaces every
binding of each one inside the ``extremenu`` package: the defining module and
every module that imported the function by name. Nothing in ``src/`` knows
about it. Each wrapper records calls, total time (outermost activation of a
function only, so recursion is not counted twice) and self time (total minus
the time covered by traced callees).
"""

from __future__ import annotations

import sys
from time import perf_counter

TRACED = {
    "geometry": (
        "polyhedron_from_generators",
        "polyhedron_from_halfspaces",
        "cone_generators",
        "faces",
        "lp_solve",
        "rank",
        "nullspace_basis",
        "solve_affine",
    ),
    "kernels": ("rref_sparse",),
    "model": ("validate_scenario", "extend_menu"),
    "exhaustive": ("is_exhaustive", "homothety_cross_check", "minimal_exhaustive_subset"),
    "extremality": (
        "build_deformation_system",
        "is_extreme_finite",
        "def_polytope_cross_check",
        "extract_decomposition",
        "verify_certificate",
    ),
    "planar": ("classify_2d",),
    "perturb": ("perturb_to_extreme",),
    "applications": ("sample_menu", "force_exhaustive", "genericity_experiment"),
    "cli": ("parse_scenario", "run_command", "render_report"),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Counters kept beside the per-function statistics; see Tracer._observe.
COUNTERS = (
    "rref_cells",
    "absorption_lp_calls",
    "absorption_lp_s",
    "nonextreme",
    "force_ok",
    "perturb_ok",
    "perturb_attempts",
    "cache_hits",  # model.extended_menu lookups served from its cache
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "extremenu" or name.startswith("extremenu."))]


class Tracer:
    """Wraps the traced functions while installed; records only while active."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED_NAMES}  # calls, total, self
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.root_s = 0.0  # time inside outermost traced calls
        self.active = False
        self._stack = []  # [name, child_time] per open traced call
        self._depth = dict.fromkeys(TRACED_NAMES, 0)
        self._patched = []  # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        import importlib

        import extremenu.cli  # noqa: F401 - imports every module that binds a traced function

        modules = _package_modules()
        for mod, fns in TRACED.items():
            home = importlib.import_module(f"extremenu.{mod}")
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))
        self.active = True

    def uninstall(self):
        self.active = False
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def unwrapped_bindings(self):
        """Bindings of traced functions that still point at the original."""
        originals = {id(orig) for _, _, orig in self._patched}
        return [f"{m.__name__}.{attr}" for m in _package_modules()
                for attr, value in vars(m).items() if id(value) in originals]

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        depth = self._depth
        observe = self._observe

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - frame[1]
                if depth[name] == 0:
                    stats[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed
                observe(name, parent, args, result, exc, elapsed)

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, parent, args, result, exc, elapsed):
        c = self.counters
        if name == "kernels.rref_sparse":
            c["rref_cells"] += len(args[0]) * args[1]
        elif name == "geometry.lp_solve" and parent == "model.extend_menu":
            c["absorption_lp_calls"] += 1
            c["absorption_lp_s"] += elapsed
        elif name == "extremality.is_extreme_finite" and exc is None and not result.extreme:
            c["nonextreme"] += 1
        elif name == "applications.force_exhaustive" and exc is None:
            c["force_ok"] += 1
        elif name == "perturb.perturb_to_extreme":
            if exc is None:
                c["perturb_ok"] += 1
                c["perturb_attempts"] += result.retries
            else:
                from extremenu.perturb import MAX_RETRIES

                c["perturb_attempts"] += MAX_RETRIES

    # -- exchange with traced child processes -------------------------------

    def to_dict(self) -> dict:
        return {"stats": self.stats, "counters": self.counters, "root_s": self.root_s}

    def merge(self, data: dict):
        for name, (calls, total, self_s) in data["stats"].items():
            s = self.stats[name]
            s[0] += calls
            s[1] += total
            s[2] += self_s
        for key, value in data["counters"].items():
            self.counters[key] += value
        self.root_s += data["root_s"]
