"""Layer spans recorded from outside the library.

A Tracer replaces selected crmfp functions and methods with timing
wrappers while it is installed.  Each wrapper opens a span on entry and
closes it on exit; a span's self time is its duration minus the time of
the spans it caused (its direct children).  Spans are aggregated as they
close into per-name call counts, total time and self time, plus a few
counters read from the arguments and results at the same boundary (rows
per projector call, exterior rows, circumcenter outcome kinds, ...).

A wrapper is installed on the name each consumer module looks up at call
time, e.g. ``solvers.apply_each`` and ``product_space.apply_each``; a
site whose module or attribute does not exist is skipped, so the metrics
fed by it are absent rather than the run failing.
"""
from __future__ import annotations

import functools
import importlib
import time

import numpy as np

_ITEMSIZE = 8  # float64

# (span name, crmfp module, attribute) for every wrapped call site.
SITES = (
    ("ellipsoid.project", "operators", "admm_project_stacked"),
    ("ellipsoid.project", "operators", "kkt_project_stacked"),
    ("ellipsoid.concat", "ellipsoid", "EllipsoidStack.concatenate"),
    ("ellipsoid.eig", "ellipsoid", "Ellipsoid.eig"),
    ("operators.apply_each", "solvers", "apply_each"),
    ("operators.apply_each", "product_space", "apply_each"),
    ("operators.combination", "operators", "ConvexCombination.__call__"),
    ("operators.projection", "operators", "EllipsoidProjection.__call__"),
    ("operators.check", "operators", "firm_nonexpansiveness_slack"),
    ("operators.check", "operators", "gradient_check"),
    ("product_space.block", "product_space", "BlockOperator.__call__"),
    ("product_space.diag", "product_space", "diag_project"),
    ("geometry.circumcenter", "solvers", "circumcenter3"),
    ("solvers.run", "solvers", "run"),
    ("solvers.run", "bench", "run"),
    ("instance_gen.gen", "instance_gen", "gen_instance"),
    ("instance_gen.gen", "bench", "gen_instance"),
    ("instance_gen.initial_point", "instance_gen", "initial_point"),
    ("instance_gen.initial_point", "bench", "initial_point"),
    ("bench.report", "bench", "export"),
    ("bench.report", "bench", "summarize"),
    ("bench.report", "bench", "performance_profile"),
)

# Spans whose presence as a direct child of apply_each marks the
# per-operator loop instead of one batched projector call.
_PER_OPERATOR = frozenset({"operators.combination", "operators.projection"})


class _Frame:
    __slots__ = ("child_s", "children")

    def __init__(self):
        self.child_s = 0.0
        self.children: set[str] = set()


class Tracer:
    """Span aggregation over the call sites in SITES."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.installed_spans: set[str] = set()
        self.installed_attrs: set[str] = set()
        self._stack: list[_Frame] = []
        self._restore: list[tuple] = []

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in SITES:
            try:
                module = importlib.import_module(f"crmfp.{module_name}")
            except ImportError:
                continue
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or member not in vars(owner):
                continue
            original = vars(owner)[member]
            observe = _OBSERVERS.get(name)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, observe))
            elif callable(original):
                wrapped = self._wrap(name, original, observe)
            else:
                continue
            setattr(owner, member, wrapped)
            self._restore.append((owner, member, original))
            self.installed_spans.add(name)
            self.installed_attrs.add(attr)

    def uninstall(self) -> None:
        while self._restore:
            owner, member, original = self._restore.pop()
            setattr(owner, member, original)
        self.installed_spans = set()
        self.installed_attrs = set()

    def _wrap(self, name, fn, observe):
        stack = self._stack
        perf_counter = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent.child_s += dt
                    parent.children.add(name)
                entry = tracer.stats.get(name)
                if entry is None:
                    entry = tracer.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame.child_s
            if observe is not None:
                observe(tracer, frame, args, out, dt)
            return out

        return traced

    # -- per-layer metrics ----------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics fed by the installed sites.

        Metrics whose sites are all missing from the library are left
        out; metrics of installed sites the workload never reached are 0.
        """
        have = self.installed_spans.__contains__
        c = self.counters.get
        m: dict[str, float] = {}
        if have("ellipsoid.project"):
            ext = c("ellipsoid.exterior_rows", 0)
            m["ellipsoid.calls"] = self.calls("ellipsoid.project")
            m["ellipsoid.rows"] = c("ellipsoid.rows", 0)
            m["ellipsoid.exterior_rows"] = ext
            m["ellipsoid.busy_s"] = self.total_s("ellipsoid.project")
            m["ellipsoid.rot_mb_computed"] = c("ellipsoid.rot_bytes", 0) / 1e6
            if "admm_project_stacked" in self.installed_attrs:
                m["ellipsoid.admm_iters_per_exterior_row"] = (
                    c("ellipsoid.admm_exterior_iters", 0) / ext if ext else 0.0
                )
        if have("ellipsoid.concat"):
            m["ellipsoid.concat_calls"] = self.calls("ellipsoid.concat")
            m["ellipsoid.concat_s"] = self.total_s("ellipsoid.concat")
        if have("ellipsoid.eig"):
            m["ellipsoid.eig_s"] = self.total_s("ellipsoid.eig")
        if have("instance_gen.gen"):
            m["instance_gen.gen_s"] = self.total_s("instance_gen.gen")
        if have("instance_gen.initial_point"):
            m["instance_gen.initial_point_s"] = self.total_s("instance_gen.initial_point")
        if have("operators.apply_each"):
            calls = self.calls("operators.apply_each")
            m["operators.apply_each_calls"] = calls
            m["operators.apply_each_self_s"] = self.self_s("operators.apply_each")
            m["operators.fused_share"] = c("operators.fused_calls", 0) / calls if calls else 0.0
        if have("operators.combination"):
            m["operators.combination_calls"] = self.calls("operators.combination")
            m["operators.combination_self_s"] = self.self_s("operators.combination")
        if have("operators.projection"):
            m["operators.projection_calls"] = self.calls("operators.projection")
        if have("product_space.block"):
            m["product_space.block_calls"] = self.calls("product_space.block")
            m["product_space.block_self_s"] = self.self_s("product_space.block")
        if have("product_space.diag"):
            m["product_space.diag_calls"] = self.calls("product_space.diag")
            m["product_space.diag_s"] = self.total_s("product_space.diag")
        if have("geometry.circumcenter"):
            m["geometry.circumcenter_calls"] = self.calls("geometry.circumcenter")
            m["geometry.circumcenter_s"] = self.total_s("geometry.circumcenter")
            for kind in ("proper", "midpoint", "single_point"):
                m[f"geometry.kind_{kind}"] = c(f"geometry.kind_{kind}", 0)
        if have("solvers.run"):
            crm_iters = c("solvers.iterations_crm", 0)
            m["solvers.run_s"] = self.total_s("solvers.run")
            m["solvers.loop_self_s"] = self.self_s("solvers.run")
            m["solvers.iterations"] = c("solvers.iterations_ppm", 0) + crm_iters
            m["solvers.ppm_s"] = c("solvers.run_s_ppm", 0.0)
            m["solvers.crm_s"] = c("solvers.run_s_crm", 0.0)
            if have("geometry.circumcenter"):
                # circumcenter3 is called by crm steps only.
                m["solvers.crm_shortcut_steps"] = crm_iters - self.calls("geometry.circumcenter")
        if have("bench.report"):
            m["bench.cells"] = c("bench.cells", 0)
            m["bench.export_s"] = self.total_s("bench.report")
        return m


# -- observers: counters read at a span boundary after the call returns ---


def _observe_project(tracer, frame, args, out, dt):
    rows = np.asarray(args[1])
    points, iters = (out[0], out[1]) if isinstance(out, tuple) else (out, None)
    moved = np.any(points != rows, axis=-1)
    count, n = rows.shape
    ext = int(moved.sum())
    tracer.count("ellipsoid.rows", count)
    tracer.count("ellipsoid.exterior_rows", ext)
    # Eigenbasis bytes read: every row is rotated in, exterior rows back out.
    tracer.count("ellipsoid.rot_bytes", (count + ext) * n * n * _ITEMSIZE)
    if iters is not None:
        tracer.count("ellipsoid.admm_exterior_iters", int(np.asarray(iters)[moved].sum()))


def _observe_apply_each(tracer, frame, args, out, dt):
    if not (frame.children & _PER_OPERATOR):
        tracer.count("operators.fused_calls")


def _observe_circumcenter(tracer, frame, args, out, dt):
    tracer.count("geometry.kind_" + out.kind.replace("-", "_"))


def _observe_run(tracer, frame, args, out, dt):
    kind = args[0]
    if kind in ("ppm", "crm"):
        tracer.count(f"solvers.iterations_{kind}", out.iterations)
        tracer.count(f"solvers.run_s_{kind}", dt)


def _observe_report(tracer, frame, args, out, dt):
    rows = args[0]
    if isinstance(rows, list) and rows and type(rows[0]).__name__ == "RunResult":
        tracer.count("bench.cells", len({(r.n, r.p, r.replicate) for r in rows}))


_OBSERVERS = {
    "bench.report": _observe_report,
    "ellipsoid.project": _observe_project,
    "operators.apply_each": _observe_apply_each,
    "geometry.circumcenter": _observe_circumcenter,
    "solvers.run": _observe_run,
}
