"""The trajectory driver, :func:`orbit`, which loads no numpy of its own.

A closed-form scalar step (``lvfamily.lv_stepper``'s, ``models.schnakenberg_step``)
runs on plain floats, so a run that uses only such a step never imports
numpy.  A step that returns arrays has loaded numpy before the run starts.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from itertools import chain
from math import isfinite

from .errors import NonFiniteState

BLOCK = 4096  # states stepped, checked and handed over at a time


def orbit(step, x0, steps: int, names=None):
    """The trajectory driver: x0 and its ``steps`` images under ``step``, in blocks.

    Each block is one flat list of floats holding up to :data:`BLOCK` states
    in row-major order; x0 opens the first block.  ``step`` first receives x0,
    and after that its own previous return value, as it returned it: an
    array, a tuple or any other sequence of floats.  x0 is handed over as a
    float array when numpy is loaded, and as a list of floats otherwise.

    The first state with a NaN or infinite component raises NonFiniteState,
    naming the bad components by ``names`` (by index when not given), after
    the states before it have been yielded.  A step that raises has the
    states before it yielded, and then its exception re-raised, unless one of
    those states is non-finite, which is reported first.  Within a block the
    step may run on from a non-finite state; what it returns or raises there
    is never reported.  Overflow is reported once and not also as numpy
    RuntimeWarnings: with numpy loaded, the generator holds
    ``np.errstate(over="ignore", invalid="ignore")`` until it is exhausted or
    closed.
    """
    if steps < 0:
        return
    block = BLOCK
    np = sys.modules.get("numpy")
    if np is None:
        x, arrays, quiet = [float(v) for v in x0], (), nullcontext()
    else:
        x, arrays = np.asarray(x0, dtype=float), np.ndarray
        quiet = np.errstate(over="ignore", invalid="ignore")
    states, todo = [x], steps
    with quiet:
        while True:
            n = min(block - len(states), todo)
            todo -= n
            append, error = states.append, None
            try:
                for _ in range(n):
                    x = step(x)
                    append(x)
            except Exception as exc:  # reported after the states before it
                error = exc
            if not states:
                values = []
            elif isinstance(x, arrays):
                values = np.concatenate(states).tolist()
            else:
                values = [float(v) for v in chain.from_iterable(states)]
            if not all(map(isfinite, values)):
                dim = len(values) // len(states)
                start = next(i for i, v in enumerate(values) if not isfinite(v)) // dim * dim
                if start:
                    yield values[:start]
                bad = [str(i if names is None else names[i])
                       for i, v in enumerate(values[start:start + dim]) if not isfinite(v)]
                raise NonFiniteState(f"non-finite value in {', '.join(bad)}")
            if values:
                yield values
            if error is not None:
                raise error
            if not todo:
                return
            states = []
