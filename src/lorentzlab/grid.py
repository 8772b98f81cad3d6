"""Geometric grids on (0, infinity).

A GeometricGrid carries breakpoints t_min = t_0 < t_1 < ... < t_N = t_max,
equally spaced in log10, with a fixed number of points per decade. Functions
discretized on a grid also own the cell (0, t_0], so the grid's N+1
breakpoints delimit N+1 cells of a piecewise-constant function (see funcs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = ["GeometricGrid", "DEFAULT_GRID"]


@dataclass(frozen=True)
class GeometricGrid:
    """Log-equispaced breakpoints on [t_min, t_max].

    N = ceil(points_per_decade * log10(t_max / t_min)) cells between t_min
    and t_max; breakpoints are 10**linspace so that decade marks (1.0 in
    particular) land exactly on a breakpoint for integer decade ranges.
    """

    t_min: float = 1e-4
    t_max: float = 1e4
    points_per_decade: int = 32
    breakpoints: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.t_min < self.t_max < math.inf):
            raise ConfigError(
                f"need 0 < t_min < t_max finite, got ({self.t_min}, {self.t_max})"
            )
        if self.points_per_decade < 1:
            raise ConfigError("points_per_decade must be >= 1")
        decades = math.log10(self.t_max / self.t_min)
        n = max(1, math.ceil(self.points_per_decade * decades - 1e-12))
        exps = np.linspace(math.log10(self.t_min), math.log10(self.t_max), n + 1)
        bp = 10.0 ** exps
        bp[0], bp[-1] = self.t_min, self.t_max
        if not np.all(np.diff(bp) > 0):
            raise ConfigError("grid too fine for float spacing")
        bp.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)

    @property
    def n_cells(self) -> int:
        return len(self.breakpoints) - 1

    def refine(self, factor: int = 2) -> "GeometricGrid":
        """Same span with factor x points per decade."""
        return GeometricGrid(self.t_min, self.t_max, self.points_per_decade * factor)

    def to_json(self) -> dict:
        return {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "points_per_decade": self.points_per_decade,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GeometricGrid":
        try:
            return cls(
                float(obj["t_min"]), float(obj["t_max"]), int(obj["points_per_decade"])
            )
        except KeyError as exc:
            raise ConfigError(f"grid JSON missing field: {exc}") from exc


DEFAULT_GRID = GeometricGrid()
