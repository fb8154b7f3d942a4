"""In-memory span recorder for the traced benchmark run.

The recorder measures the birat layers from outside.  It wraps public
functions and methods and installs each wrapper wherever a caller looks the
function up: every ``birat`` module that holds the function under some name
(the defining module, modules that imported it by name, the package
namespace), or the class dictionary for methods.  Each call records one span
(name, start, end, parent).  Spans stay in memory until the run ends; a
span's self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

# (span name, defining module, attribute path of the original)
TRACED = (
    ("quadvf.evaluate", "birat.quadvf", "QuadraticVectorField.evaluate"),
    ("quadvf.jacobian", "birat.quadvf", "QuadraticVectorField.jacobian"),
    ("kahan.kahan_step", "birat.kahan", "kahan_step"),
    ("kahan.kahan_step_series", "birat.kahan", "kahan_step_series"),
    ("kahan.kahan_inverse_step", "birat.kahan", "kahan_inverse_step"),
    ("lvfamily.lv_step", "birat.lvfamily", "lv_step"),
    ("lvfamily.symplectic_residual", "birat.lvfamily", "symplectic_residual"),
    ("lvfamily.symbolic_certificate", "birat.lvfamily", "symbolic_certificate"),
    ("ratpoly.MultiPoly.mul", "birat.ratpoly", "MultiPoly.__mul__"),
    ("ratpoly.perfect_square_root", "birat.ratpoly", "perfect_square_root"),
    ("geomcheck.convergence_order", "birat.geomcheck", "convergence_order"),
    ("geomcheck.roundtrip_error", "birat.geomcheck", "roundtrip_error"),
    ("geomcheck.multiplier_agreement", "birat.geomcheck", "multiplier_agreement"),
    ("geomcheck.conservation_drift", "birat.geomcheck", "conservation_drift"),
    ("models.schnakenberg_step", "birat.models", "schnakenberg_step"),
    ("models.model_vector_field", "birat.models", "model_vector_field"),
    ("cli.cmd_integrate", "birat.cli", "cmd_integrate"),
    ("cli.cmd_verify", "birat.cli", "cmd_verify"),
)
SPAN_NAMES = tuple(name for name, _, _ in TRACED)


def _resolve(module: str, path: str):
    """(owner, original) for a dotted attribute path, or (None, None) if absent."""
    try:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None, None


class Tracer:
    """Records one span per call of every function in :data:`TRACED`."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = [0] * len(SPAN_NAMES)
        self.missing: list[str] = []  # traced names the program no longer defines
        self._stack = [-1]

    def _wrap(self, nid: int, fn):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block, then restore."""
        patched = []
        try:
            for nid, (span, module, path) in enumerate(TRACED):
                owner, orig = _resolve(module, path)
                if orig is None:
                    self.missing.append(span)
                    continue
                wrapper = self._wrap(nid, orig)
                if isinstance(owner, type):
                    # methods: every class slot bound to the function, so
                    # MultiPoly.__rmul__ = __mul__ is covered too
                    sites = [(owner, key) for key, val in vars(owner).items() if val is orig]
                else:
                    sites = [(mod, key)
                             for mod_name, mod in list(sys.modules.items())
                             if mod is not None and (mod_name == "birat"
                                                     or mod_name.startswith("birat."))
                             for key, val in vars(mod).items() if val is orig]
                for obj, key in sites:
                    setattr(obj, key, wrapper)
                    patched.append((obj, key, orig))
            yield self
        finally:
            for obj, key, orig in reversed(patched):
                setattr(obj, key, orig)

    def summary(self) -> dict:
        """Per span name: calls, self_s, total_s and errors."""
        import numpy as np

        names = np.array(self.name, dtype=np.intp)
        parents = np.array(self.parent, dtype=np.intp)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        total_s = np.bincount(names, weights=dur, minlength=k)
        return {
            span: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i]), "errors": self.errors[i]}
            for i, span in enumerate(SPAN_NAMES)
        }

    def save(self, path) -> None:
        """Write every span as arrays (name id, parent index, start, end)."""
        import numpy as np

        np.savez(path, span_names=np.array(SPAN_NAMES),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start, dtype=float),
                 end=np.array(self.end, dtype=float))
