"""Spans around the library's public functions, recorded from outside the library.

The tracer replaces module attributes of the ``tsirelson`` package with
wrappers.  A function is replaced under every name that binds it in any
``tsirelson`` module (``tsirelson.sdp.lhv_bound`` and
``tsirelson.cli.lhv_bound`` are the same function), so calls made through a
module global or through a module attribute are both seen.  Spans stay in
memory until the run writes them out.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict

from tsirelson.errors import MaxIterReached

# span name -> (module, attribute) of the function it wraps
TARGETS = {
    "cli.main": ("tsirelson.cli", "main"),
    "sdp.solve": ("tsirelson.sdp", "solve"),
    "sdp.solve_primal": ("tsirelson.sdp", "solve_primal"),
    "sdp.extract_dual": ("tsirelson.sdp", "extract_dual"),
    "sdp.certify": ("tsirelson.sdp", "certify"),
    "linalg.min_eigenvalue": ("tsirelson.linalg", "min_eigenvalue"),
    "inequality.build_objective": ("tsirelson.inequality", "build_objective"),
    "classical.lhv_bound": ("tsirelson.classical", "lhv_bound"),
    "realization.realize": ("tsirelson.realization", "realize"),
    "realization.inequality_value": ("tsirelson.realization", "inequality_value"),
    "realization.correlation": ("tsirelson.realization", "correlation"),
}


def _count_primal(counts, solution):
    counts["sdp.solve_primal.sweeps"] += solution.iterations
    if not solution.converged:
        counts["sdp.solve_primal.unconverged"] += 1


def _on_result(name, counts, args, result):
    if name == "sdp.solve_primal":
        _count_primal(counts, result)
    elif name == "sdp.solve":
        counts["sdp.solve.calls"] += 1
        counts["sdp.solve.restarts"] += len(result.runs) - 1
    elif name == "classical.lhv_bound":
        counts["classical.lhv_bound.strategies"] += 2 ** min(args[0].coefficients.shape)
    elif name == "realization.correlation":
        counts["realization.correlation.calls"] += 1
    elif name == "realization.realize":
        counts["realization.realize.max_dim"] = max(
            counts["realization.realize.max_dim"], result.dim
        )


def _on_error(name, counts, exc):
    if name == "sdp.solve_primal" and isinstance(exc, MaxIterReached):
        _count_primal(counts, exc.solution)


class Tracer:
    """Records {name, start, end, parent, job_id} spans and per-pass totals."""

    def __init__(self):
        self.spans = []
        self.job_id = None
        self._stack = []  # [span index, seconds covered by children]
        self._patches = []
        self.begin_pass()

    def begin_pass(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(
                {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                 "job_id": self.job_id}
            )
            self._stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                _on_error(name, self.counts, exc)
                raise
            else:
                _on_result(name, self.counts, args, result)
                return result
            finally:
                end = time.perf_counter()
                _, covered = self._stack.pop()
                span = self.spans[index]
                span["start"], span["end"] = start, end
                self.self_s[name] += (end - start) - covered
                if self._stack:
                    self._stack[-1][1] += end - start

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if (n == "tsirelson" or n.startswith("tsirelson.")) and m is not None]
        for name, (module_name, attr) in TARGETS.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)
