"""Concrete reaction models: enzyme kinetics, Lotka-Volterra, Schnakenberg.

The enzyme system is the four-species mass-action network

    S + E <-> C -> P + E

with rates k1 (binding), km1 (unbinding), k2 (catalysis); e + c is conserved.
Scaling by the initial substrate and enzyme pools gives the three-variable
dimensionless form in (x, y, z) with parameters mu < nu and the small ratio
eps = e0/s0.

numpy and :mod:`birat.quadvf` load inside the field builders and the array
helpers, so the model table and the closed-form Schnakenberg step do not
load them.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import TYPE_CHECKING, Callable

from .errors import DenominatorVanishes, PoleError

if TYPE_CHECKING:
    from .quadvf import QuadraticVectorField


@dataclass(frozen=True)
class EnzymeParams:
    """Mass-action rates and initial pools for the four-species system."""

    k1: float
    km1: float
    k2: float
    s0: float = 1.0
    e0: float = 1.0

    def __post_init__(self):
        for name in ("k1", "k2", "s0", "e0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.km1 < 0:
            raise ValueError("km1 must be nonnegative")


@dataclass(frozen=True)
class DimensionlessEnzymeParams:
    """Parameters of the scaled system; requires nu > mu > 0 and eps > 0."""

    mu: float
    nu: float
    eps: float

    def __post_init__(self):
        if not (self.nu > self.mu > 0):
            raise ValueError(f"need nu > mu > 0, got mu={self.mu}, nu={self.nu}")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class SchnakenbergParams:
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")


# -- enzyme kinetics -----------------------------------------------------------


def enzyme_vf(p: EnzymeParams) -> QuadraticVectorField:
    """Four-species field in the ordering (s, e, c, p).

    s' = -k1 e s + km1 c,  e' = -k1 e s + (km1 + k2) c,
    c' =  k1 e s - (km1 + k2) c,  p' = k2 c.
    """
    from .quadvf import QuadraticVectorField

    lin = [
        (0, 2, p.km1),
        (1, 2, p.km1 + p.k2),
        (2, 2, -(p.km1 + p.k2)),
        (3, 2, p.k2),
    ]
    quad = [
        (0, 0, 1, -p.k1),
        (1, 0, 1, -p.k1),
        (2, 0, 1, p.k1),
    ]
    return QuadraticVectorField.from_triplets(4, lin_triplets=lin, quad_triplets=quad)


def enzyme_diml_vf(p: DimensionlessEnzymeParams) -> QuadraticVectorField:
    """Dimensionless field in (x, y, z); stores 1/eps explicitly.

    x' = -x + mu y + x y,  eps y' = x - nu y - x y,  z' = (nu - mu) y.
    The row functional (1, eps, 1) annihilates the field, so x + eps y + z
    is a first integral.
    """
    from .quadvf import QuadraticVectorField

    inv_eps = 1.0 / p.eps
    lin = [
        (0, 0, -1.0),
        (0, 1, p.mu),
        (1, 0, inv_eps),
        (1, 1, -p.nu * inv_eps),
        (2, 1, p.nu - p.mu),
    ]
    quad = [
        (0, 0, 1, 1.0),
        (1, 0, 1, -inv_eps),
    ]
    return QuadraticVectorField.from_triplets(3, lin_triplets=lin, quad_triplets=quad)


def enzyme_reduced_vf(p: DimensionlessEnzymeParams) -> QuadraticVectorField:
    """The closed (x, y) subsystem of :func:`enzyme_diml_vf`."""
    from .quadvf import QuadraticVectorField

    full = enzyme_diml_vf(p)
    return QuadraticVectorField(full.c0[:2], full.lin[:2, :2], full.quad[:2, :2, :2])


def michaelis_menten(x: float, nu: float) -> float:
    """Quasi-steady complex level y = x/(nu + x)."""
    den = nu + x
    if den == 0:
        raise PoleError(f"pole at x = -nu = {x}")
    return x / den


# -- Lotka-Volterra -------------------------------------------------------------


def lv_vf() -> QuadraticVectorField:
    """Normalized predator-prey field x' = x(1 - y), y' = y(x - 1)."""
    from .quadvf import QuadraticVectorField

    lin = [(0, 0, 1.0), (1, 1, -1.0)]
    quad = [(0, 0, 1, -1.0), (1, 0, 1, 1.0)]
    return QuadraticVectorField.from_triplets(2, lin_triplets=lin, quad_triplets=quad)


# -- Schnakenberg ---------------------------------------------------------------


def schnakenberg_vf(p: SchnakenbergParams):
    """Right-hand side (a - x + x^2 y, b - x^2 y); cubic, so a plain callable."""
    import numpy as np

    def f(state):
        x, y = state
        xxy = x * x * y
        return np.array([p.a - x + xxy, p.b - xxy])

    return f


def schnakenberg_step(p: SchnakenbergParams, x: float, y: float, h: float):
    """Structure-adapted step solved in closed form.

    (xt - x)/h = a - (xt + x)/2 + x xt yt,  (yt - y)/h = b - x^2 yt.
    """
    den_y = 1.0 + h * x * x
    if den_y == 0.0:
        raise DenominatorVanishes("1 + h*x^2 vanishes")
    yt = (y + h * p.b) / den_y
    den_x = 1.0 + 0.5 * h - h * x * yt
    if den_x == 0.0:
        raise DenominatorVanishes("1 + h/2 - h*x*yt vanishes")
    xt = (x + h * (p.a - 0.5 * x)) / den_x
    return xt, yt


def schnakenberg_inverse_step(p: SchnakenbergParams, xt: float, yt: float, h: float):
    """Exact inverse of :func:`schnakenberg_step`."""
    den_x = 1.0 - 0.5 * h + h * xt * yt
    if den_x == 0.0:
        raise DenominatorVanishes("1 - h/2 + h*xt*yt vanishes")
    x = (xt * (1.0 + 0.5 * h) - h * p.a) / den_x
    y = yt * (1.0 + h * x * x) - h * p.b
    return x, y


def schnakenberg_steady_state(p: SchnakenbergParams):
    """The unique positive steady state (a + b, b/(a + b)^2)."""
    s = p.a + p.b
    return s, p.b / (s * s)


def schnakenberg_trace(p: SchnakenbergParams) -> float:
    """Trace of the field Jacobian at the steady state; positive means unstable."""
    s = p.a + p.b
    return -1.0 + 2.0 * p.b / s - s * s


def hopf_unstable_b(a: float) -> float:
    """Smallest b of the grid linspace(0.05, 0.95, 181) whose steady state has trace >= 0.25.

    Derived from the trace condition rather than hard-coded.
    """
    import numpy as np

    for b in np.linspace(0.05, 0.95, 181):
        if schnakenberg_trace(SchnakenbergParams(a=a, b=float(b))) >= 0.25:
            return float(b)
    raise ValueError(f"no b in the grid reaches trace 0.25 for a={a}")


# -- model table -----------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """One row of :data:`MODELS`; the callables take the model's parameter instance.

    The fields of ``params`` are the allowed ``--params`` keys. ``field`` is
    ``None`` for a model that is not quadratic, and ``fast_scale`` (the ``eps``
    a step should not exceed) for one without a fast transient. ``invariants``
    names the row vectors ``w`` with ``w·f ≡ 0``: ``w·x`` is a first integral
    that a Kahan step keeps exactly.
    """

    state_names: tuple[str, ...]
    params: type | None
    defaults: object
    field: Callable[[object], QuadraticVectorField] | None
    default_x0: Callable[[object], list[float]]
    fast_scale: Callable[[object], float] | None = None
    invariants: Callable[[object], dict[str, tuple[float, ...]]] = lambda p: {}

    @property
    def param_keys(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.params)) if self.params else ()

    @property
    def required_keys(self) -> tuple[str, ...]:
        """The ``param_keys`` with no default: a partial ``--params`` set must name them."""
        if not self.params:
            return ()
        return tuple(f.name for f in fields(self.params)
                     if f.default is MISSING and f.default_factory is MISSING)


def _schnakenberg_x0(p: SchnakenbergParams) -> list[float]:
    """The steady state with x moved up by 10%."""
    xs, ys = schnakenberg_steady_state(p)
    return [1.1 * xs, ys]


MODELS: dict[str, ModelSpec] = {
    "enzyme4": ModelSpec(
        ("s", "e", "c", "p"), EnzymeParams, EnzymeParams(1.0, 0.5, 0.1, 1.0, 0.01),
        field=enzyme_vf,
        default_x0=lambda p: [p.s0, p.e0, 0.0, 0.0],
        fast_scale=lambda p: p.e0 / p.s0,
        invariants=lambda p: {"e-plus-c": (0.0, 1.0, 1.0, 0.0),
                              "s-plus-c-plus-p": (1.0, 0.0, 1.0, 1.0)}),
    "enzyme3": ModelSpec(
        ("x", "y", "z"), DimensionlessEnzymeParams, DimensionlessEnzymeParams(0.5, 0.6, 1e-2),
        field=enzyme_diml_vf,
        default_x0=lambda p: [1.0, 0.0, 0.0],
        fast_scale=lambda p: p.eps,
        invariants=lambda p: {"linear-integral": (1.0, p.eps, 1.0)}),
    "lv": ModelSpec(
        ("x", "y"), None, None,
        field=lambda p: lv_vf(),
        default_x0=lambda p: [2.0, 0.5]),
    "schnakenberg": ModelSpec(
        ("x", "y"), SchnakenbergParams, SchnakenbergParams(0.1, 0.5),
        field=None,
        default_x0=_schnakenberg_x0),
}


def model_vector_field(name: str, params=None) -> QuadraticVectorField:
    """Quadratic field of a :data:`MODELS` row; KeyError for Schnakenberg, which is cubic."""
    if MODELS[name].field is None:
        raise KeyError(f"no quadratic field for model {name!r}")
    return MODELS[name].field(params)


__all__ = [
    "EnzymeParams",
    "DimensionlessEnzymeParams",
    "SchnakenbergParams",
    "enzyme_vf",
    "enzyme_diml_vf",
    "enzyme_reduced_vf",
    "michaelis_menten",
    "lv_vf",
    "schnakenberg_vf",
    "schnakenberg_step",
    "schnakenberg_inverse_step",
    "schnakenberg_steady_state",
    "schnakenberg_trace",
    "hopf_unstable_b",
    "ModelSpec",
    "MODELS",
    "model_vector_field",
]
