"""Span tracing of the ciinwalk public API, installed from outside the package.

`Tracer.install` swaps a wrapper onto each traced function in every
``ciinwalk`` module namespace that holds it.  Library code finds its callees
through module globals (``apply_schedule`` looks up ``walk_full`` in
``ciinwalk.dynamics``), so internal calls are caught without any source edit.
`Tracer.uninstall` puts every original back.

Each call records a span (name, start, end, parent span, operation id).
Spans stay in memory until `write_spans`.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import sys
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter_ns

from ciinwalk import dynamics, graphs


def _state_length(args, kwargs):
    return len(args[0])


def _steps(args, kwargs, result):
    return len(result.steps)


def _samples(args, kwargs, result):
    return len(result.trajectory)


def _gates(args, kwargs, result):
    return len(result.gates)


def _gate_amplitudes(args, kwargs, result):
    program = args[0]
    return len(program.gates) * program.dimension


# (span name, module, attribute, state length of a call, work count of a call)
TARGETS = (
    ("graphs.dual_basis", "ciinwalk.graphs", "dual_basis", None, None),
    ("dynamics.walk_reduced", "ciinwalk.dynamics", "walk_reduced", None, None),
    ("dynamics.walk_full", "ciinwalk.dynamics", "walk_full", _state_length, None),
    ("dynamics.oracle_phase", "ciinwalk.dynamics", "oracle_phase", _state_length, None),
    ("dynamics.group_probabilities", "ciinwalk.dynamics", "group_probabilities", None, None),
    ("dynamics.apply_schedule", "ciinwalk.dynamics", "apply_schedule", None, _samples),
    ("schedules.build", "ciinwalk.schedules", "approx_schedule", None, _steps),
    ("schedules.build", "ciinwalk.schedules", "deterministic_schedule", None, _steps),
    ("schedules.build", "ciinwalk.schedules", "odd_schedule", None, _steps),
    ("schedules.schedule_matrix", "ciinwalk.schedules", "schedule_matrix", None, None),
    ("cg.cg_evolve", "ciinwalk.cg", "cg_evolve", None, _samples),
    ("circuit.compile_schedule", "ciinwalk.circuit", "compile_schedule", None, _gates),
    ("circuit.simulate", "ciinwalk.circuit", "simulate", None, _gate_amplitudes),
    ("circuit.reconstruct_unitary", "ciinwalk.circuit", "reconstruct_unitary", None, None),
    ("cli.main", "ciinwalk.cli", "main", None, None),
)
# Methods are replaced on their class.  DualBasis.matrix is the work that
# rebuilding a DualBasis costs, so it counts as a call of graphs.dual_basis.
METHOD_TARGETS = (
    ("graphs.dual_basis", graphs.DualBasis, "matrix"),
    ("cli.serialize", dynamics.RunReport, "to_csv"),
    ("cli.serialize", dynamics.RunReport, "to_json"),
)
ROOT = "bench.op"
SPAN_NAMES = tuple(dict.fromkeys([ROOT] + [t[0] for t in TARGETS] + [t[0] for t in METHOD_TARGETS]))


@dataclass
class Layer:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    work: int = 0
    # state length -> [calls, self ns]; feeds the copy-floor ratios
    by_length: dict = field(default_factory=dict)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ciinwalk" or name.startswith("ciinwalk."))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.layers = {name: Layer() for name in SPAN_NAMES}
        self.op_id = -1
        self._stack: list = []  # [span index, child ns]
        self._installed: list = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, 0])
        return index

    def _exit(self, name, index, start, end):
        _, child_ns = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans[index] = (name, start, end, parent, self.op_id)
        layer = self.layers[name]
        layer.calls += 1
        layer.total_ns += duration
        layer.self_ns += duration - child_ns
        return layer, duration - child_ns

    def run_op(self, op_id, func, *args):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        start = perf_counter_ns()
        index = self._enter()
        try:
            return func(*args)
        finally:
            self._exit(ROOT, index, start, perf_counter_ns())

    def wrap(self, name, func, length=None, work=None):
        def traced(*args, **kwargs):
            start = perf_counter_ns()
            index = self._enter()
            try:
                result = func(*args, **kwargs)
            finally:
                layer, self_ns = self._exit(name, index, start, perf_counter_ns())
                if length is not None:
                    bucket = layer.by_length.setdefault(length(args, kwargs), [0, 0])
                    bucket[0] += 1
                    bucket[1] += self_ns
            if work is not None:
                layer.work += work(args, kwargs, result)
            return result

        traced.__traced__ = True
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        modules = _package_modules()
        try:
            for name, module_name, attribute, length, work in TARGETS:
                original = getattr(sys.modules[module_name], attribute)
                wrapper = self.wrap(name, original, length, work)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._installed.append((module, key, original))
                            setattr(module, key, wrapper)
            for name, owner, attribute in METHOD_TARGETS:
                original = owner.__dict__[attribute]
                if isinstance(original, cached_property):
                    wrapper = cached_property(self.wrap(name, original.func))
                    wrapper.__set_name__(owner, attribute)
                else:
                    wrapper = self.wrap(name, original)
                self._installed.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """Write spans as gzipped CSV: name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name},{start},{end},{parent},{op}\n")


def installed_wrappers():
    """(owner, attribute) of every traced wrapper still reachable; empty once
    a tracer is uninstalled."""
    found = []
    owners = _package_modules() + list(dict.fromkeys(owner for _, owner, _ in METHOD_TARGETS))
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if getattr(getattr(value, "func", value), "__traced__", False):
                found.append((getattr(owner, "__name__", owner), key))
    return found
