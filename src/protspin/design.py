"""Bridge from laboratory parameters to the dimensionless model.

A Stern-Gerlach-style setup: atoms from an oven at temperature t_oven cross a
field region of length d at the most probable beam speed v = sqrt(2 kB T/m).
The crossing time sets T, the protection field sets omega0 = 2 mu B0 / hbar,
and the field-gradient ratio sets xi = |grad B1| d / B0.  The transverse
pointer displacement accumulated over the crossing is

    delta_s = mu |grad B1| |cos(gamma)| d^2 / (4 kB t_oven).

Note: displacement values quoted alongside gradient figures in the protective
measurement literature are not always mutually consistent with this formula
(discrepancies of roughly a factor of ten occur); the formula is what this
module computes, in both directions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .core import MeasurementGeometry, _check_gamma
from .exact import amplitude_envelope, probability_taylor, xi_bound

BOLTZMANN = 1.380649e-23          # J/K
HBAR = 1.054572e-34               # J*s
ATOMIC_MASS_UNIT = 1.66053907e-27  # kg

POTASSIUM_MU = 9.3e-24            # J/T, one Bohr magneton to the digits used here
POTASSIUM_MASS = 39.0 * ATOMIC_MASS_UNIT

# LabParameters field -> its unit-bearing config key, in field order
_CONFIG_KEYS = {
    "mu": "mu_joule_per_tesla",
    "mass": "mass_kg",
    "b0": "b0_tesla",
    "grad_b1": "grad_b1_tesla_per_meter",
    "d": "d_meter",
    "t_oven": "t_oven_kelvin",
    "gamma": "gamma_deg",
}


@dataclass(frozen=True)
class LabParameters:
    """SI description of one beam experiment.

    mu : magnetic moment (J/T)
    mass : atomic mass (kg)
    b0 : protection field (T)
    grad_b1 : measurement-field gradient magnitude (T/m)
    d : field-region length (m)
    t_oven : oven temperature (K)
    gamma : polar angle of the measurement direction (radians)
    """

    mu: float
    mass: float
    b0: float
    grad_b1: float
    d: float
    t_oven: float
    gamma: float = 0.25 * math.pi

    def __post_init__(self):
        for name in _CONFIG_KEYS:
            value = getattr(self, name)
            if name != "gamma" and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        _check_gamma(self.gamma)

    @classmethod
    def potassium(
        cls,
        b0: float = 10.0,
        grad_b1: float = 20.0,
        d: float = 0.1,
        t_oven: float = 500.0,
        gamma: float = 0.25 * math.pi,
    ) -> "LabParameters":
        """Potassium-39 beam preset (mu = 9.3e-24 J/T, mass 39 u)."""
        return cls(
            mu=POTASSIUM_MU,
            mass=POTASSIUM_MASS,
            b0=b0,
            grad_b1=grad_b1,
            d=d,
            t_oven=t_oven,
            gamma=gamma,
        )

    @classmethod
    def from_config(cls, config: dict) -> "LabParameters":
        """Build from a JSON-style dict with unit-bearing field names.

        A "species": "potassium" entry fills in mu and mass; all other fields
        are required and a missing one is reported by name.
        """
        if not isinstance(config, dict):
            raise ValueError(f"config must be a JSON object, got {type(config).__name__}")
        data = dict(config)
        species = data.pop("species", None)
        if species is not None:
            key = str(species).strip().lower()
            if key in ("potassium", "potassium-39", "k-39", "k39"):
                data.setdefault("mu_joule_per_tesla", POTASSIUM_MU)
                data.setdefault("mass_kg", POTASSIUM_MASS)
            else:
                raise ValueError(f"unknown species {species!r} (only potassium-39 is built in)")
        missing = [key for key in _CONFIG_KEYS.values() if key not in data]
        if missing:
            raise ValueError(f"missing required config field(s): {', '.join(missing)}")
        values = {}
        for name, key in _CONFIG_KEYS.items():
            try:
                if isinstance(data[key], (bool, str)):
                    # float() would read true as 1 and "10" as 10
                    raise TypeError
                values[name] = float(data[key])
            except (TypeError, ValueError, OverflowError):
                # OverflowError: an int too large for a float
                raise ValueError(f"config field {key} must be a number, got {data[key]!r}") from None
        values["gamma"] = math.radians(values["gamma"])
        return cls(**values)

    @classmethod
    def from_json(cls, path) -> "LabParameters":
        return cls.from_config(json.loads(Path(path).read_text()))

    def as_config(self) -> dict:
        """The parameters under their unit-bearing config names, gamma in degrees."""
        config = {key: getattr(self, name) for name, key in _CONFIG_KEYS.items()}
        config["gamma_deg"] = math.degrees(self.gamma)
        return config


@dataclass(frozen=True)
class DesignReport:
    """Derived beam, field and disturbance figures for one parameter set."""

    v: float            # most probable beam speed, m/s
    T: float            # crossing time, s
    omega0: float       # transition angular frequency, 1/s
    omega0T: float
    xi: float
    p_minus: float          # envelope spin-flip probability at (xi, gamma)
    p_minus_taylor: float   # leading-order xi^2 sin^2(gamma)
    delta_s: float          # pointer displacement magnitude, m

    def as_dict(self) -> dict:
        return {
            "v_meter_per_second": self.v,
            "t_second": self.T,
            "omega0_per_second": self.omega0,
            "omega0T": self.omega0T,
            "xi": self.xi,
            "p_minus_envelope": self.p_minus,
            "p_minus_taylor": self.p_minus_taylor,
            "delta_s_meter": self.delta_s,
        }


# derived figure -> (its formula, the LabParameters fields it is computed from),
# in the order derive_report checks them
_FIGURES = {
    "v": ("sqrt(2 kB t_oven / mass)", ("mass", "t_oven")),
    "T": ("d / v", ("mass", "d", "t_oven")),
    "omega0": ("2 mu b0 / hbar", ("mu", "b0")),
    "omega0T": ("omega0 T", ("mu", "mass", "b0", "d", "t_oven")),
    "xi": ("grad_b1 d / b0", ("b0", "grad_b1", "d")),
    "delta_s": ("mu grad_b1 |cos(gamma)| d^2 / (4 kB t_oven)", ("mu", "grad_b1", "d", "t_oven")),
}


def derive_report(lab: LabParameters) -> DesignReport:
    """Derived dimensionless parameters and disturbance/displacement figures.

    Raises ValueError, naming the inputs, if a derived figure overflows.
    """
    v = math.sqrt(2.0 * BOLTZMANN * lab.t_oven / lab.mass)
    T = lab.d / v if v else math.inf
    omega0 = 2.0 * lab.mu * lab.b0 / HBAR
    try:
        delta_s = (
            lab.mu * lab.grad_b1 * abs(math.cos(lab.gamma)) * lab.d ** 2
            / (4.0 * BOLTZMANN * lab.t_oven)
        )
    except ArithmeticError:  # d ** 2 overflows, or 4 kB t_oven underflows to 0
        delta_s = math.inf
    omega0T = omega0 * T
    xi = lab.grad_b1 * lab.d / lab.b0
    for (name, (formula, inputs)), value in zip(
        _FIGURES.items(), (v, T, omega0, omega0T, xi, delta_s)
    ):
        if not math.isfinite(value):
            listing = ", ".join(f"{field}={getattr(lab, field)!r}" for field in inputs)
            raise ValueError(f"{name} = {formula} overflows at {listing}")
    geom = MeasurementGeometry(xi=xi, gamma=lab.gamma, eta=0.0, omega0T=omega0T)
    p_env = amplitude_envelope(geom).probability_minus
    p_taylor = probability_taylor(geom)
    return DesignReport(
        v=v,
        T=T,
        omega0=omega0,
        omega0T=omega0T,
        xi=xi,
        p_minus=p_env,
        p_minus_taylor=p_taylor,
        delta_s=delta_s,
    )


def required_gradient(target_displacement: float, lab: LabParameters) -> float:
    """Gradient magnitude producing the target pointer displacement.

    Inverts the delta_s formula at the given beam parameters.  For gamma at
    or beyond 90 degrees the displacement along the gradient vanishes, so no
    gradient works.  Raises ValueError, naming the inputs, where the
    gradient is out of the float range.
    """
    if not (math.isfinite(target_displacement) and target_displacement > 0.0):
        raise ValueError(
            f"target displacement must be finite and positive, got {target_displacement!r}"
        )
    cos_g = math.cos(lab.gamma)
    # 1e-12 absorbs round-off of cos at a right angle
    if cos_g <= 1e-12:
        raise ValueError(
            f"no gradient yields a displacement at gamma = {lab.gamma!r} "
            "(cos(gamma) <= 0)"
        )
    try:
        gradient = 4.0 * BOLTZMANN * lab.t_oven * target_displacement / (lab.mu * cos_g * lab.d ** 2)
    except ArithmeticError:  # mu cos(gamma) d^2 underflows to 0, or d ** 2 overflows
        gradient = math.inf
    if gradient == math.inf:
        raise ValueError(f"required gradient is out of range at mu={lab.mu!r}, gamma={lab.gamma!r}, "
                         f"d={lab.d!r}, t_oven={lab.t_oven!r}, target={target_displacement!r}")
    return gradient


def xi_budget(p_max: float, lab: LabParameters) -> float:
    """Largest gradient (T/m) keeping the flip probability at gamma = pi/2 <= p_max.

    This is xi_bound(p_max) in lab units, not a worst case over gamma: other
    polar angles allow up to xi^2 (see xi_bound).  p_max = 1 poses no
    constraint and returns +inf.
    """
    if p_max == 1.0:
        return math.inf
    return xi_bound(p_max) * lab.b0 / lab.d
