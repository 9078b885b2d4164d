"""The compact RC thermal network behind the HotSpot stand-in.

HotSpot [38] models a chip as a network of thermal resistances (and, for
transients, capacitances): one node per floorplan block, lateral
resistances between adjacent blocks through the silicon, and a vertical
path from every block through the heat spreader / heat sink to ambient.
Steady state is then a sparse linear system ``G T = P + G_amb T_amb``.

We build the conductance matrix straight from the floorplan's adjacency
map and solve it with dense :mod:`numpy` linear algebra (floorplans here
have at most a few dozen blocks).  The transient solver uses implicit
(backward) Euler, which is unconditionally stable, so large
DVFS-interval steps are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.thermal.floorplan import Floorplan


@dataclass(frozen=True)
class ThermalMaterial:
    """Bulk material/package constants of the thermal network.

    Parameters
    ----------
    silicon_conductivity:
        Thermal conductivity of silicon, W/(m K).  ~100 at hot-die
        temperatures.
    die_thickness:
        Die thickness, metres.
    vertical_resistance_area:
        Specific vertical (die-to-ambient through the package) thermal
        resistance in K m^2/W; the per-block vertical resistance is this
        divided by block area.  This lumps spreader, sink, and convection.
    volumetric_heat_capacity:
        Silicon volumetric heat capacity, J/(m^3 K), for transients.
    """

    silicon_conductivity: float = 100.0
    die_thickness: float = 0.5e-3
    vertical_resistance_area: float = 6.0e-5
    volumetric_heat_capacity: float = 1.75e6

    def __post_init__(self) -> None:
        if min(
            self.silicon_conductivity,
            self.die_thickness,
            self.vertical_resistance_area,
            self.volumetric_heat_capacity,
        ) <= 0:
            raise ConfigurationError("thermal material constants must be positive")


class ThermalRCNetwork:
    """RC thermal network over a floorplan with steady/transient solvers.

    The vertical resistances can be scaled uniformly via
    ``vertical_scale`` — the calibration hook
    :meth:`repro.thermal.hotspot.HotSpotModel.calibrate` uses it to pin a
    known power map at a known temperature, the same renormalisation
    spirit as the paper's Section 3.3.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        material: ThermalMaterial | None = None,
        vertical_scale: float = 1.0,
    ) -> None:
        if vertical_scale <= 0:
            raise ConfigurationError("vertical_scale must be positive")
        self.floorplan = floorplan
        self.material = material or ThermalMaterial()
        self.vertical_scale = vertical_scale
        self._names = floorplan.names
        self._index = {name: i for i, name in enumerate(self._names)}
        self._conductance = self._build_conductance_matrix()
        self._capacitance = self._build_capacitance_vector()

    def _vertical_conductance(self, name: str) -> float:
        area = self.floorplan.block(name).area
        resistance = self.vertical_scale * self.material.vertical_resistance_area / area
        return 1.0 / resistance

    def _build_conductance_matrix(self) -> np.ndarray:
        """Lateral conductances between adjacent blocks plus each
        block's vertical path to ambient, as a nodal matrix."""
        n = len(self._names)
        g_matrix = np.zeros((n, n))
        mat = self.material
        for (a, b), edge_length in self.floorplan.adjacency().items():
            ca = self.floorplan.block(a).center()
            cb = self.floorplan.block(b).center()
            distance = math.hypot(ca[0] - cb[0], ca[1] - cb[1])
            cross_section = edge_length * mat.die_thickness
            g = mat.silicon_conductivity * cross_section / distance
            i, j = self._index[a], self._index[b]
            g_matrix[i, i] += g
            g_matrix[j, j] += g
            g_matrix[i, j] -= g
            g_matrix[j, i] -= g
        for name in self._names:
            i = self._index[name]
            g_matrix[i, i] += self._vertical_conductance(name)
        return g_matrix

    def _build_capacitance_vector(self) -> np.ndarray:
        mat = self.material
        return np.array(
            [
                mat.volumetric_heat_capacity * b.area * mat.die_thickness
                for b in self.floorplan.blocks
            ]
        )

    def _power_vector(self, power_map: Mapping[str, float]) -> np.ndarray:
        unknown = set(power_map) - set(self._names)
        if unknown:
            raise ConfigurationError(f"power map names not in floorplan: {sorted(unknown)}")
        vec = np.zeros(len(self._names))
        for name, watts in power_map.items():
            if watts < 0:
                raise ConfigurationError(f"negative power for block {name}")
            vec[self._index[name]] = watts
        return vec

    def steady_state(
        self, power_map: Mapping[str, float], ambient_k: float
    ) -> Dict[str, float]:
        """Steady-state block temperatures (kelvin) for a power map.

        Solves ``G T = P + G_vert T_amb`` where ``G`` includes lateral and
        vertical conductances.
        """
        p = self._power_vector(power_map)
        rhs = p.copy()
        for name in self._names:
            rhs[self._index[name]] += self._vertical_conductance(name) * ambient_k
        temperatures = np.linalg.solve(self._conductance, rhs)
        return dict(zip(self._names, temperatures.tolist()))

    def transient(
        self,
        power_map: Mapping[str, float],
        ambient_k: float,
        initial_k: Mapping[str, float] | float,
        duration_s: float,
        dt_s: float = 1e-3,
    ) -> Dict[str, float]:
        """Implicit-Euler transient: temperatures after ``duration_s``.

        ``initial_k`` may be a scalar (uniform start) or a per-block map.
        The step ``(C/dt + G) T_next = C/dt T + P + G_vert T_amb`` is
        unconditionally stable, so coarse steps still converge to the
        steady state.
        """
        if duration_s < 0 or dt_s <= 0:
            raise ConfigurationError("need duration >= 0 and dt > 0")
        n = len(self._names)
        if isinstance(initial_k, Mapping):
            temperature = np.array([initial_k[name] for name in self._names])
        else:
            temperature = np.full(n, float(initial_k))
        p = self._power_vector(power_map)
        rhs_const = p.copy()
        for name in self._names:
            rhs_const[self._index[name]] += self._vertical_conductance(name) * ambient_k
        c_over_dt = np.diag(self._capacitance / dt_s)
        lhs = c_over_dt + self._conductance
        steps = int(round(duration_s / dt_s))
        for _ in range(steps):
            rhs = c_over_dt @ temperature + rhs_const
            temperature = np.linalg.solve(lhs, rhs)
        return dict(zip(self._names, temperature.tolist()))

    def with_vertical_scale(self, scale: float) -> "ThermalRCNetwork":
        """A copy of this network with a different vertical-resistance scale."""
        return ThermalRCNetwork(self.floorplan, self.material, vertical_scale=scale)
