"""Span tracing of lowmach from outside the package.

The traced run rebinds the public functions of each module to timing
wrappers and restores them afterwards; nothing under ``src/`` is edited.
A module-level function is rebound under every ``lowmach`` module that
holds it by name, because that is the name its callers look up at call
time.  A method is patched on its class.  Only public names are wrapped
(``__post_init__`` is the dataclass protocol hook, not a private helper),
so refactors that delete private helpers do not break the benchmark; a
target that no longer exists is reported as absent.

Spans are kept in memory as (name, start, end, parent, raised, value)
and turned into numpy arrays after each traced unit of work.  ``value``
carries the per-call work count a target reports: cells for a time step,
iterations for an iterative solve.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _cells(args, kwargs, result):
    return float(args[0].rho.size)


def _iterations(args, kwargs, result):
    return float(result[1])


def _stencil_name(base: str, fn: Callable) -> Callable:
    signature = inspect.signature(fn)

    def name(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return f"{base}.{bound.arguments['stencil']}"

    return name


@dataclass(frozen=True)
class Target:
    """One wrap target: ``attr`` is ``name`` or ``Class.name`` in ``module``."""

    module: str
    attr: str
    span: str
    value: Callable | None = None
    # Builds the span name from the call (only the 2D solve, per stencil).
    name_by_call: Callable | None = None


TARGETS = (
    Target("lowmach.onedim", "step_ap_1d", "onedim.step_ap_1d", _cells),
    Target("lowmach.onedim", "step_explicit_llf_1d", "onedim.step_explicit_llf_1d", _cells),
    Target("lowmach.onedim", "max_stable_dt_scan", "onedim.max_stable_dt_scan"),
    Target("lowmach.elliptic", "solve_elliptic_ld_1d", "elliptic.solve_elliptic_ld_1d"),
    Target("lowmach.elliptic", "solve_elliptic_nl_1d", "elliptic.solve_elliptic_nl_1d", _iterations),
    Target("lowmach.elliptic", "solve_elliptic_2d", "elliptic.solve_elliptic_2d", _iterations,
           name_by_call=_stencil_name),
    Target("lowmach.elliptic", "apply_elliptic_operator_1d", "elliptic.apply_elliptic_operator_1d"),
    Target("lowmach.elliptic", "apply_elliptic_operator_2d", "elliptic.apply_elliptic_operator_2d"),
    Target("lowmach.tridiag", "solve_periodic_tridiagonal", "tridiag.solve_periodic_tridiagonal"),
    Target("lowmach.twodim", "step_ap_2d", "twodim.step_ap_2d", _cells),
    Target("lowmach.twodim", "assemble_dphi_2d", "twodim.assemble_dphi_2d"),
    Target("lowmach.core", "EquationOfState.pressure", "core.pressure"),
    Target("lowmach.core", "EquationOfState.pressure_derivative", "core.pressure_derivative"),
    Target("lowmach.core", "FluidState1D.__post_init__", "core.state_validate"),
    Target("lowmach.core", "FluidState2D.__post_init__", "core.state_validate"),
    Target("lowmach.core", "validate_params", "core.validate_params"),
    Target("lowmach.runner", "run", "runner.run"),
    Target("lowmach.runner", "reproduce_table1", "runner.reproduce_table1"),
    Target("lowmach.runner", "reference_solution", "runner.reference_solution"),
    Target("lowmach.config", "build_config", "config.build_config"),
    Target("lowmach.cli", "main", "cli.main"),
    Target("lowmach.diagnostics", "total_variation", "diagnostics.total_variation"),
)

STEP_SPANS = ("onedim.step_ap_1d", "onedim.step_explicit_llf_1d", "twodim.step_ap_2d")
STEP_TARGETS = tuple(t for t in TARGETS if t.span in STEP_SPANS)


class Tracer:
    """Records spans of wrapped calls between :meth:`install` and
    :meth:`uninstall`.  Single-threaded: one stack of open spans."""

    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def call(self, name, fn, value, args, kwargs):
        spans = self.spans
        index = len(spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, False, 0.0]
        spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[4] = True
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if value is not None:
            span[5] = value(args, kwargs, result)
        return result

    def _wrapper(self, target: Target, fn):
        name_of = target.name_by_call(target.span, fn) if target.name_by_call else None
        span, value, call = target.span, target.value, self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name_of(args, kwargs) if name_of else span, fn, value, args, kwargs)

        return wrapper

    def install(self, targets=TARGETS):
        self.absent = []
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = vars(owner).get(attr) if isinstance(owner, type) else None
                if not callable(fn):
                    self.absent.append(f"{target.module}.{target.attr}")
                    continue
                self._patch(owner, attr, self._wrapper(target, fn))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrapper(target, fn)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "lowmach" or mod_name.startswith("lowmach.")) \
                        and vars(mod).get(attr) is fn:
                    self._patch(mod, attr, wrapper)

    def _patch(self, obj, attr, wrapper):
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, wrapper)

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def take(self) -> "SpanTable":
        """Move the recorded spans into a :class:`SpanTable` and clear them."""
        table = SpanTable.from_spans(self.spans)
        self.spans = []
        return table


@dataclass
class SpanTable:
    """Spans of one traced unit of work as parallel arrays."""

    names: list
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    raised: np.ndarray
    value: np.ndarray

    @classmethod
    def from_spans(cls, spans):
        names = sorted({s[0] for s in spans})
        ids = {n: i for i, n in enumerate(names)}
        return cls(
            names=names,
            name_id=np.array([ids[s[0]] for s in spans], dtype=np.int32),
            start=np.array([s[1] for s in spans], dtype=float),
            end=np.array([s[2] for s in spans], dtype=float),
            parent=np.array([s[3] for s in spans], dtype=np.int64),
            raised=np.array([s[4] for s in spans], dtype=bool),
            value=np.array([s[5] for s in spans], dtype=float),
        )

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive s, self s, raised, value sum.
        Self time is the span's duration minus its direct children's."""
        duration = self.end - self.start
        child = np.zeros(len(duration))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], duration[has_parent])
        self_time = duration - child
        out = {}
        for i, name in enumerate(self.names):
            sel = self.name_id == i
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "s": float(duration[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "raised": int(np.count_nonzero(self.raised[sel])),
                "value": float(self.value[sel].sum()),
            }
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        if name not in self.names or ancestor not in self.names:
            return 0
        target = self.names.index(ancestor)
        count = 0
        for index in np.flatnonzero(self.name_id == self.names.index(name)):
            p = self.parent[index]
            while p >= 0 and self.name_id[p] != target:
                p = self.parent[p]
            count += p >= 0
        return int(count)


def cell_steps(table: SpanTable) -> tuple[int, int]:
    """(time steps, cells x steps) recorded by the step spans of a unit."""
    steps = cells = 0
    for name, agg in table.aggregate().items():
        if name in STEP_SPANS:
            steps += agg["calls"]
            cells += int(agg["value"])
    return steps, cells


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(table: SpanTable) -> dict:
    """Per-layer metrics of one traced unit, as {name: value}.  Layers a
    workload does not exercise read 0."""
    agg = table.aggregate()

    def g(name, key):
        return agg.get(name, {}).get(key, 0)

    ap_steps = g("onedim.step_ap_1d", "calls")
    scan_steps = table.count_under("onedim.step_ap_1d", "onedim.max_stable_dt_scan")
    scans = g("onedim.max_stable_dt_scan", "calls")
    tri = "tridiag.solve_periodic_tridiagonal"
    nl = "elliptic.solve_elliptic_nl_1d"
    steps, cells = cell_steps(table)
    m = {
        "onedim.step_ap_1d.calls": ap_steps,
        "onedim.step_ap_1d.self_s": g("onedim.step_ap_1d", "self_s"),
        "onedim.step_ap_1d.self_us_per_call": 1e6 * _ratio(g("onedim.step_ap_1d", "self_s"), ap_steps),
        "onedim.step_ap_1d.raised": g("onedim.step_ap_1d", "raised"),
        "onedim.step_explicit_llf_1d.calls": g("onedim.step_explicit_llf_1d", "calls"),
        "onedim.step_explicit_llf_1d.self_s": g("onedim.step_explicit_llf_1d", "self_s"),
        "onedim.max_stable_dt_scan.calls": scans,
        "onedim.max_stable_dt_scan.self_s": g("onedim.max_stable_dt_scan", "self_s"),
        "onedim.max_stable_dt_scan.steps_per_scan": _ratio(scan_steps, scans),
        "onedim.max_stable_dt_scan.step_share": _ratio(scan_steps, ap_steps),
        "elliptic.solve_elliptic_ld_1d.calls": g("elliptic.solve_elliptic_ld_1d", "calls"),
        "elliptic.solve_elliptic_ld_1d.s": g("elliptic.solve_elliptic_ld_1d", "s"),
        "elliptic.solve_elliptic_nl_1d.calls": g(nl, "calls"),
        "elliptic.solve_elliptic_nl_1d.s": g(nl, "s"),
        "elliptic.solve_elliptic_nl_1d.newton_iters_per_solve": _ratio(g(nl, "value"), g(nl, "calls")),
        "elliptic.solve_elliptic_nl_1d.raised": g(nl, "raised"),
    }
    for stencil in ("reduced", "wide"):
        name = f"elliptic.solve_elliptic_2d.{stencil}"
        m[f"{name}.calls"] = g(name, "calls")
        m[f"{name}.s"] = g(name, "s")
        m[f"{name}.cg_iters_per_solve"] = _ratio(g(name, "value"), g(name, "calls"))
    m.update({
        "elliptic.apply_elliptic_operator_1d.s": g("elliptic.apply_elliptic_operator_1d", "s"),
        "elliptic.apply_elliptic_operator_2d.s": g("elliptic.apply_elliptic_operator_2d", "s"),
        "tridiag.solve_periodic_tridiagonal.calls": g(tri, "calls"),
        "tridiag.solve_periodic_tridiagonal.s": g(tri, "s"),
        "tridiag.solve_periodic_tridiagonal.us_per_call": 1e6 * _ratio(g(tri, "s"), g(tri, "calls")),
        "tridiag.solves_per_step": _ratio(g(tri, "calls"), ap_steps),
        "twodim.step_ap_2d.calls": g("twodim.step_ap_2d", "calls"),
        "twodim.step_ap_2d.self_s": g("twodim.step_ap_2d", "self_s"),
        "twodim.assemble_dphi_2d.s": g("twodim.assemble_dphi_2d", "s"),
        "core.pressure.calls": g("core.pressure", "calls"),
        "core.pressure.s": g("core.pressure", "s"),
        "core.pressure_derivative.calls": g("core.pressure_derivative", "calls"),
        "core.pressure_derivative.s": g("core.pressure_derivative", "s"),
        "core.state_validate.calls": g("core.state_validate", "calls"),
        "core.state_validate.s": g("core.state_validate", "s"),
        "core.validate_params.s": g("core.validate_params", "s"),
        "runner.run.self_s": g("runner.run", "self_s"),
        "runner.reproduce_table1.self_s": g("runner.reproduce_table1", "self_s"),
        "runner.reference_solution.self_s": g("runner.reference_solution", "self_s"),
        "config.build_config.s": g("config.build_config", "s"),
        "cli.main.self_s": g("cli.main", "self_s"),
        "diagnostics.total_variation.s": g("diagnostics.total_variation", "s"),
        "workload.steps": steps,
        "workload.cell_steps": cells,
    })
    return m


def self_shares(table: SpanTable, wall: float) -> dict:
    """Self time of every span name as a share of the unit's wall time,
    largest first; the remainder is time outside any wrapped call."""
    agg = table.aggregate()
    shares = {name: a["self_s"] / wall for name, a in agg.items()}
    shares["(outside wrapped calls)"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("us_per_call"):
        return "us"
    if last == "s" or last.endswith("_s"):
        return "s"
    if last == "bytes_written":
        return "B"
    if last == "step_share":
        return "1"
    return "count"
