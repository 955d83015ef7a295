"""Training hyperparameters and their default profiles.

Two network kinds share one parameter record:

* ``LW``: every connection carries a single scalar weight.
* ``NLW``: inter-node connections carry a linear coefficient plus a
  piecewise-linear look-up table with a visit table of the same length.

The defaults below are the values used throughout the experiments; only
the gain/decay pair differs between kinds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace, fields

import numpy as np

KIND_LW = "LW"
KIND_NLW = "NLW"
KINDS = (KIND_LW, KIND_NLW)

# Longest probe ladder accepted. Each offset adds two rows to every LUT layer's probe
# block on every training iteration; the defaults give 9, and a_m = 1.001 with the
# default a_l and a_h would give 848.
MAX_PROBE_OFFSETS = 256


def probe_ladder(a_l: float, a_h: float, a_m: float, limit: int) -> list[float]:
    """Probe offsets a_l, a_l*a_m, a_l*a_m^2, ... up to the last one <= a_h.

    Always non-empty; one more a_m step past the last entry would exceed
    a_h. Stops after limit + 1 offsets, so a ladder longer than limit
    shows as one of limit + 1 without being built in full.
    """
    out = [a_l]
    a = a_l
    while a * a_m <= a_h and len(out) <= limit:
        a *= a_m
        out.append(a)
    return out


@dataclass(frozen=True)
class Hyperparameters:
    """Immutable bundle of every tunable the engine reads.

    mu      learning step for all gradient updates
    nu      extra multiplier on updates of the LUT connections' linear part
    r_res   number of LUT grid points per connection (>= 2)
    i_min   lower edge of the LUT input domain
    i_max   upper edge of the LUT input domain
    a_l     smallest probe offset of the derivative estimator
    a_h     largest allowed probe offset
    a_m     geometric step between probe offsets (> 1; at most 256 offsets)
    zeta    probability that a LUT connection is regularized this iteration
    r_a     diffusion smoothing strength (0 selects the linear limit)
    r_b     diffusion visit-balance strength
    r_c     visit table decay/bump rate
    s_a     update gain coefficient (0 disables gain shaping)
    s_b     multiplicative weight decay per application
    v_p     initial fill value of visit tables (v_min if v_p is below it)
    v_min   hard floor of visit table entries, in (0, 0.5]
    probe_offsets  not a field: ``probe_ladder`` of a_l, a_h and a_m as a read-only
            float64 array, the probes of every LUT slope estimate
    """

    mu: float = 0.02
    nu: float = 2.5
    r_res: int = 64
    i_min: float = -1.0
    i_max: float = 1.0
    a_l: float = 0.15
    a_h: float = 0.35
    a_m: float = 1.1
    zeta: float = 0.05
    r_a: float = 1e-4
    r_b: float = 1e-4
    r_c: float = 0.001
    s_a: float = 1.0
    s_b: float = 1e-9
    v_p: float = 0.1
    v_min: float = 1e-16

    def __post_init__(self):
        if isinstance(self.r_res, bool) or not isinstance(self.r_res, int):
            raise ValueError(f"r_res must be an int, got {self.r_res!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.generic):   # stored as the Python number it holds, so it saves
                value = value.item()
                object.__setattr__(self, f.name, value)
            if isinstance(value, bool):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("mu", "r_a", "r_b", "s_a"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must not be negative")
        if self.r_res < 2:
            raise ValueError("r_res must be at least 2")
        if not self.i_min < self.i_max:
            raise ValueError("i_min must be below i_max")
        if not 0 < self.a_l <= self.a_h:
            raise ValueError("need 0 < a_l <= a_h")
        if not self.a_m > 1:
            raise ValueError("a_m must exceed 1")
        offsets = np.array(probe_ladder(self.a_l, self.a_h, self.a_m, MAX_PROBE_OFFSETS))
        if len(offsets) > MAX_PROBE_OFFSETS:
            about = math.floor(math.log(self.a_h / self.a_l) / math.log(self.a_m)) + 1
            raise ValueError(f"a_l={self.a_l!r}, a_h={self.a_h!r} and a_m={self.a_m!r} give a "
                             f"probe ladder of about {about} offsets, more than the "
                             f"{MAX_PROBE_OFFSETS} allowed")
        offsets.flags.writeable = False
        object.__setattr__(self, "probe_offsets", offsets)
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("zeta must lie in [0, 1]")
        if not 0.0 <= self.s_b < 1.0:
            raise ValueError("s_b must lie in [0, 1)")
        if not 0.0 <= self.r_c < 1.0:
            raise ValueError("r_c must lie in [0, 1)")
        # at most 0.5: a floored visit entry then bumps to <= 1, so no later bump
        # factor 1 + r_c*share*(1 - v) falls below 1 and pushes an entry under it
        if not 0.0 < self.v_min <= 0.5:
            raise ValueError("v_min must lie in (0, 0.5]")
        if not 0.0 < self.v_p <= 1.0:
            raise ValueError("v_p must lie in (0, 1]")

    @property
    def span(self) -> float:
        return self.i_max - self.i_min

    def replace(self, **changes) -> "Hyperparameters":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def default_hyperparameters(kind: str = KIND_NLW) -> Hyperparameters:
    """Defaults for a network kind; LW flips the gain off and decays harder."""
    if kind not in KINDS:
        raise ValueError(f"unknown network kind {kind!r}, expected one of {KINDS}")
    if kind == KIND_LW:
        return Hyperparameters(s_a=0.0, s_b=2e-7)
    return Hyperparameters()
