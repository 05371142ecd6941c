"""The two published samples used in the paper's evaluation.

* **Benzil** ((C6H5CO)2, trigonal P3(1)21) measured on CORELLI — the
  diffuse-scattering showcase of Savici et al. 2022 (paper ref. [6]).
  Point group 321 gives the 6 symmetry operations of Tables II/III/IV.
* **Bixbyite** ((Mn,Fe)2O3, cubic Ia-3) measured on TOPAZ — the
  spin-glass study of Roth et al. 2019 (paper ref. [31]).  Point group
  m-3 gives the 24 operations of Tables II/V/VI; body centering imposes
  the h+k+l = even reflection condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crystal.lattice import UnitCell
from repro.crystal.symmetry import PointGroup, point_group
from repro.util.validation import ValidationError


_CENTERING_RULES = {
    "P": lambda h, k, l: np.ones_like(h, dtype=bool),
    "I": lambda h, k, l: (h + k + l) % 2 == 0,
    "F": lambda h, k, l: ((h % 2 == k % 2) & (k % 2 == l % 2)),
    "A": lambda h, k, l: (k + l) % 2 == 0,
    "B": lambda h, k, l: (h + l) % 2 == 0,
    "C": lambda h, k, l: (h + k) % 2 == 0,
    "R": lambda h, k, l: (-h + k + l) % 3 == 0,
}


@dataclass(frozen=True)
class CrystalStructure:
    """A sample: unit cell, point group, lattice centering, and the
    parameters of its synthetic scattering model."""

    name: str
    cell: UnitCell
    point_group_symbol: str
    centering: str = "P"
    #: isotropic displacement parameter controlling high-Q intensity falloff
    b_iso: float = 0.5
    #: fraction of scattering that is diffuse (between Bragg peaks)
    diffuse_fraction: float = 0.2
    #: RNG seed namespace so intensities are reproducible per material
    intensity_seed: int = 0

    def __post_init__(self) -> None:
        if self.centering not in _CENTERING_RULES:
            raise ValidationError(
                f"unknown centering {self.centering!r}; known: {sorted(_CENTERING_RULES)}"
            )
        point_group(self.point_group_symbol)  # validate eagerly

    @property
    def point_group(self) -> PointGroup:
        return point_group(self.point_group_symbol)

    def allowed(self, hkl: np.ndarray) -> np.ndarray:
        """Boolean mask of reflections allowed by the lattice centering."""
        hkl = np.asarray(hkl)
        h = np.rint(hkl[..., 0]).astype(np.int64)
        k = np.rint(hkl[..., 1]).astype(np.int64)
        l = np.rint(hkl[..., 2]).astype(np.int64)
        return _CENTERING_RULES[self.centering](h, k, l)


def benzil() -> CrystalStructure:
    """Benzil: trigonal, a = b = 8.376 A, c = 13.700 A, gamma = 120."""
    return CrystalStructure(
        name="benzil",
        cell=UnitCell(8.376, 8.376, 13.700, 90.0, 90.0, 120.0),
        point_group_symbol="321",
        centering="P",
        b_iso=1.2,
        diffuse_fraction=0.35,  # benzil is the diffuse-scattering use case
        intensity_seed=601,
    )


def bixbyite() -> CrystalStructure:
    """Bixbyite: cubic Ia-3, a = 9.4118 A."""
    return CrystalStructure(
        name="bixbyite",
        cell=UnitCell(9.4118, 9.4118, 9.4118),
        point_group_symbol="m-3",
        centering="I",
        b_iso=0.4,
        diffuse_fraction=0.15,
        intensity_seed=311,
    )
