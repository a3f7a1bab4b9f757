"""Spans recorded from outside the program.

The tracer replaces public functions at the module attribute their caller
looks them up by (``sparcomp.sim.build_design_matrix`` is what
``run_experiment`` and ``validate_bounds`` call), records one span per
call and restores the originals afterwards. A span is
[name, start, end, parent index, run id, info]; its layer is the part of
the name before the first dot. Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, List, Optional


def _matrix_info(args, kwargs, result):
    p = result.params
    return [f"{p.n}-{p.L}-{p.M}-{p.seed}", int(result.entries.size)]


def _encode_info(args, kwargs, result):
    p = (args[0] if args else kwargs["matrix"]).params
    return [f"{p.n}-{p.L}-{p.M}", result.status, p.n_codewords]


def _codebook_info(args, kwargs, result):
    return [int(result.size)]


def _kind_info(args, kwargs, result):
    return [(args[0] if args else kwargs["model"]).kind]


def _samples_info(args, kwargs, result):
    return [int(result.n_samples)]


# (attribute on sparcomp.sim, span name, info)
SIM_TARGETS = (
    ("build_design_matrix", "core.build_design_matrix", _matrix_info),
    ("encode_min_distance", "encoder.encode_min_distance", _encode_info),
    ("all_distortions", "encoder.all_distortions", _codebook_info),
    ("draw_source", "sim.draw_source", _kind_info),
    ("estimate_pU1", "sim.estimate_pU1", _samples_info),
    ("estimate_pair_prob", "sim.estimate_pair_prob", _samples_info),
    ("run_experiment", "sim.run_experiment", None),
    ("validate_bounds", "sim.validate_bounds", None),
    ("robustness_suite", "sim.robustness_suite", None),
    ("exponent_trend", "sim.exponent_trend", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.run_id = ""
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             info: Optional[Callable] = None):
        kwargs = kwargs or {}
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if info is not None:
            span[5] = info(args, kwargs, result)
        return result

    def _wrapper(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)
        return traced

    @contextmanager
    def installed(self):
        """Wrap the sim entry points, the functions sim calls across a
        module boundary, and every public function of sparcomp.theory."""
        import sparcomp.sim as sim
        import sparcomp.theory as theory
        patches = [(sim, attr, name, info) for attr, name, info in SIM_TARGETS]
        patches += [(theory, attr, f"theory.{attr}", None)
                    for attr, obj in vars(theory).items()
                    if not attr.startswith("_") and callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == theory.__name__]
        saved = []
        try:
            for owner, attr, name, info in patches:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(name, fn, info))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
