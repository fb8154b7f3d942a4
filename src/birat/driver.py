"""The trajectory driver, :func:`orbit`, which loads no numpy of its own.

A closed-form scalar step (``lvfamily.lv_stepper``'s, ``models.schnakenberg_step``)
runs on plain floats, so a run that uses only such a step never imports
numpy.  A step that returns arrays has loaded numpy before the run starts.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext

from .errors import NonFiniteState


def orbit(step, x0, steps: int, names=None):
    """The trajectory driver: yield x0 and its ``steps`` images under ``step``.

    Each state is yielded as a list of floats.  ``step`` first receives x0,
    and after that its own previous return value, as it returned it: an
    array, a tuple or any other sequence of floats.  x0 is handed over as a
    float array when numpy is loaded, and as a list of floats otherwise.  The
    first state with a NaN or infinite component raises NonFiniteState,
    naming the bad components by ``names`` (by index when not given), so an
    overflow is reported once and not also as numpy RuntimeWarnings: with
    numpy loaded, the generator holds ``np.errstate(over="ignore",
    invalid="ignore")`` until it is exhausted or closed.
    """
    np = sys.modules.get("numpy")
    if np is None:
        x, arrays, quiet = [float(v) for v in x0], (), nullcontext()
    else:
        x, arrays = np.asarray(x0, dtype=float), np.ndarray
        quiet = np.errstate(over="ignore", invalid="ignore")
    with quiet:
        for k in range(steps + 1):
            if k:
                x = step(x)
            values = x.tolist() if isinstance(x, arrays) else [float(v) for v in x]
            if not all(map(math.isfinite, values)):
                bad = [str(i if names is None else names[i])
                       for i, v in enumerate(values) if not math.isfinite(v)]
                raise NonFiniteState(f"non-finite value in {', '.join(bad)}")
            yield values
