"""Span tracing of mollilab's public functions from outside the package.

`Tracer.install()` replaces each target function (or method) by a wrapper
that records a span (name, start, end, parent, op id) in memory.  A module
function is rebound in every loaded `mollilab` module that holds it under
any name, because `cli`, `modelzoo` and others import by name; a method is
replaced on its class.  Targets missing from the package are skipped and
read as never called.  `uninstall()` restores the originals.

A few targets also record useful-output counts (`STATS`), so that the
per-op numbers include ratios measured where the work happens.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Wrapped functions, named <module>.<attribute path>.  cli.main is the root
# span of every op, so the self times of all spans add up to the op time.
TARGETS = (
    "cli.main", "cli.write_csv", "cli.run_curvature", "cli.run_deviation",
    "cli.run_lemmas", "cli.run_norms",
    "modelzoo.get_geometry", "modelzoo.ModelGeometry.sample_all",
    "lattice.MetricField.matrices", "lattice.MetricField.eigenvalues",
    "lattice.differentiate", "lattice.erode_mask", "lattice.sample_metric",
    "kernels.make_bump", "kernels.scale_kernel", "kernels.convolve",
    "atlas.assemble_mollified", "atlas.pullback_metric",
    "atlas.interpolate_metric", "atlas.Atlas.weights",
    "curvature.riemann", "curvature.sec_extreme_fields",
    "curvature.sectional_field", "curvature.riem_contract_field",
    "curvature.invert_metric", "curvature.scalar_curvature",
    "norms.holder_seminorm", "norms.holder_chart_report", "norms.sobolev_norm",
    "norms.harmonic_defect", "norms.check_N0",
)

MODULES = ("cli", "modelzoo", "lattice", "kernels", "atlas", "curvature", "norms")
PACKAGE = "mollilab"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _mask_in_out(pos, name):
    """Valid mask nodes of the field argument and of the returned field."""
    def stat(args, kwargs, out):
        return {"in": int(_arg(args, kwargs, pos, name).mask.sum()),
                "out": int(out.mask.sum())}
    return stat


def _assemble_stat(args, kwargs, out):
    samples = _arg(args, kwargs, 1, "samples")
    return {"in": int(sum(g.mask.sum() for g in samples.values())),
            "out": int(sum(f.mask.sum() for f in out.values()))}


def _riemann_stat(args, kwargs, out):
    stat = _mask_in_out(0, "g")(args, kwargs, out)
    stat["out_mb"] = out.riem.nbytes / 2**20
    return stat


def _sectional_stat(args, kwargs, out):
    return {"finite": int(np.isfinite(out).sum()), "total": int(out.size)}


STATS = {
    "curvature.riemann": _riemann_stat,
    "kernels.convolve": _mask_in_out(1, "f"),
    "atlas.assemble_mollified": _assemble_stat,
    "curvature.sectional_field": _sectional_stat,
}


class Tracer:
    """In-memory span recorder around calls into mollilab."""

    def __init__(self):
        self.names: list[str] = []        # span name per target index
        self.spans: list[tuple] = []      # (name index, start, end, parent, op)
        self.stats: list[tuple] = []      # (name index, op, stat dict)
        self.stat_errors = 0              # stats not taken: a return value changed shape
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []     # (owner, attribute, original)
        self._wrappers: dict = {}         # target name -> wrapper

    # -- installation -------------------------------------------------------

    def _resolve(self, target: str):
        mod_name, *path = target.split(".")
        owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        if owner is None or not hasattr(owner, path[-1]):
            return None, None
        return owner, path[-1]

    def resolve_originals(self) -> dict:
        """Target name -> the plain function object, for targets that exist."""
        found = {}
        for target in TARGETS:
            owner, attr = self._resolve(target)
            if owner is not None:
                found[target] = getattr(owner, attr)
        return found

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for target, fn in self.resolve_originals().items():
            if target not in self._wrappers:
                self._wrappers[target] = self._wrap(target, fn)
            wrapper = self._wrappers[target]
            if target.count(".") == 1:
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._saved.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
            else:
                owner, attr = self._resolve(target)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, target: str, fn):
        idx = len(self.names)
        self.names.append(target)
        stat_fn = STATS.get(target)
        spans, stack, stats = self.spans, self._stack, self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (idx, start, end, parent, self.op)
            if stat_fn is not None:
                try:
                    stats.append((idx, self.op, stat_fn(args, kwargs, out)))
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.stat_errors += 1  # the op goes on; the stat reads 0
            return out

        return wrapper

    # -- results --------------------------------------------------------------

    def per_op(self, ops: list[int]) -> dict:
        """Per-op calls, self seconds and stat totals per target, over `ops`."""
        wanted = set(ops)
        child = [0.0] * len(self.spans)
        for name_idx, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = {}
        self_s: dict = {}
        for slot, (name_idx, start, end, parent, op) in enumerate(self.spans):
            if op not in wanted:
                continue
            name = self.names[name_idx]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[slot]
        stats: dict = {}
        for name_idx, op, stat in self.stats:
            if op not in wanted:
                continue
            acc = stats.setdefault(self.names[name_idx], {})
            for key, val in stat.items():
                acc[key] = max(acc.get(key, 0.0), val) if key == "out_mb" \
                    else acc.get(key, 0) + val
        k = len(wanted)
        return {"calls": {n: c / k for n, c in calls.items()},
                "self_s": {n: s / k for n, s in self_s.items()},
                "stats": stats}

    def span_records(self) -> list[dict]:
        return [{"name": self.names[i], "start": s, "end": e, "parent": p, "op": op}
                for i, s, e, p, op in self.spans]


class CallRecorder:
    """Which target functions run, seen through the interpreter's trace hook.

    Gives the set of targets an op really calls, independently of the
    wrappers, so a call path that bypasses a wrapper shows up as missing.
    """

    def __init__(self, originals: dict):
        self._codes = {fn.__code__: name for name, fn in originals.items()}
        self.called: set = set()

    def _hook(self, frame, event, arg):
        name = self._codes.get(frame.f_code)
        if name is not None:
            self.called.add(name)
        return None

    def __enter__(self):
        sys.settrace(self._hook)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        return False


def layer_metrics(per_op: dict) -> dict:
    """Per-op values named <module>.<function>.<stat>, plus module rollups."""
    calls, self_s, stats = per_op["calls"], per_op["self_s"], per_op["stats"]
    out = {}
    for target in TARGETS:
        out[f"{target}.calls"] = calls.get(target, 0.0)
        out[f"{target}.self_s"] = self_s.get(target, 0.0)
    for target in ("curvature.riemann", "kernels.convolve", "atlas.assemble_mollified"):
        st = stats.get(target, {})
        out[f"{target}.valid_frac"] = st["out"] / st["in"] if st.get("in") else 0.0
    st = stats.get("curvature.sectional_field", {})
    out["curvature.sectional_field.finite_frac"] = \
        st["finite"] / st["total"] if st.get("total") else 0.0
    out["curvature.riemann.out_mb"] = \
        stats.get("curvature.riemann", {}).get("out_mb", 0.0)
    for mod in MODULES:
        out[f"{mod}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.startswith(mod + "."))
    return out
