"""The 2-D lattice of SOM units.

A :class:`Grid` owns the *location vectors* ``r_i`` of Section III-A:
fixed positions of the units in map space, against which the Gaussian
neighborhood kernel measures distance.  Rectangular and hexagonal
layouts are supported; the paper's figures use a rectangular map.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SOMError

__all__ = ["Grid"]

_TOPOLOGIES = ("rectangular", "hexagonal")


class Grid:
    """A rows-by-columns lattice of SOM units with fixed locations.

    Units are indexed in row-major order: unit ``i`` sits at
    ``(row, col) = divmod(i, columns)``.  For the hexagonal topology,
    odd rows are shifted half a cell right and rows are compressed by
    ``sqrt(3)/2``, giving each interior unit six equidistant
    neighbors.

    Example
    -------
    >>> grid = Grid(2, 3)
    >>> grid.num_units
    6
    >>> grid.position_of(4)
    (1, 1)
    """

    __slots__ = ("_rows", "_columns", "_topology", "_locations", "_sq_distances")

    def __init__(self, rows: int, columns: int, *, topology: str = "rectangular") -> None:
        if rows < 1 or columns < 1:
            raise SOMError(f"Grid: needs positive dimensions, got {rows}x{columns}")
        if topology not in _TOPOLOGIES:
            raise SOMError(
                f"Grid: unknown topology {topology!r}; choose from {_TOPOLOGIES}"
            )
        self._rows = rows
        self._columns = columns
        self._topology = topology

        row_index, col_index = np.divmod(np.arange(rows * columns), columns)
        x = col_index.astype(float)
        y = row_index.astype(float)
        if topology == "hexagonal":
            x = x + 0.5 * (row_index % 2)
            y = y * (np.sqrt(3.0) / 2.0)
        self._locations = np.column_stack([x, y])

        diff = self._locations[:, None, :] - self._locations[None, :, :]
        self._sq_distances = np.sum(diff * diff, axis=2)
        # Frozen so row views handed to the training loop stay pristine.
        self._sq_distances.setflags(write=False)

    # -- shape ------------------------------------------------------------

    @staticmethod
    def suggested_shape(n_samples: int) -> tuple[int, int]:
        """A square lattice sized by the ``5 * sqrt(n)`` unit heuristic.

        The standard SOM sizing rule of thumb (Vesanto's heuristic):
        about five units per square root of the sample count, rounded
        up to a square no smaller than 4x4.  The paper's 13-workload
        suite lands at 5x5 (its figures use a roomier 8x8); 100
        workloads suggest 8x8; 1000 suggest 13x13 — the shapes the
        scaling benchmark sweeps.
        """
        if n_samples < 1:
            raise SOMError(
                f"Grid.suggested_shape: needs a positive sample count, "
                f"got {n_samples}"
            )
        units = 5.0 * float(np.sqrt(n_samples))
        side = max(4, int(np.ceil(np.sqrt(units))))
        return side, side

    @property
    def rows(self) -> int:
        """Number of rows."""
        return self._rows

    @property
    def columns(self) -> int:
        """Number of columns."""
        return self._columns

    @property
    def topology(self) -> str:
        """``"rectangular"`` or ``"hexagonal"``."""
        return self._topology

    @property
    def num_units(self) -> int:
        """Total number of units."""
        return self._rows * self._columns

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, columns)``."""
        return (self._rows, self._columns)

    @property
    def diameter(self) -> float:
        """Largest unit-to-unit map distance; a natural initial radius."""
        return float(np.sqrt(self._sq_distances.max()))

    # -- geometry ------------------------------------------------------------

    @property
    def locations(self) -> np.ndarray:
        """Location vectors ``r_i``, one row per unit (read-only copy)."""
        return self._locations.copy()

    def position_of(self, unit: int) -> tuple[int, int]:
        """Lattice coordinates ``(row, col)`` of a unit index."""
        self._check_unit(unit)
        return divmod(unit, self._columns)

    def index_of(self, row: int, col: int) -> int:
        """Unit index at lattice coordinates ``(row, col)``."""
        if not (0 <= row < self._rows and 0 <= col < self._columns):
            raise SOMError(
                f"Grid: position ({row}, {col}) outside a {self._rows}x{self._columns} grid"
            )
        return row * self._columns + col

    @property
    def squared_distance_table(self) -> np.ndarray:
        """The full ``(num_units, num_units)`` squared-distance table.

        A read-only view of the table precomputed at construction.
        Batch training fancy-indexes it with a BMU vector
        (``table[bmus]``) instead of stacking per-unit rows.
        """
        return self._sq_distances

    def squared_map_distances_from(self, unit: int) -> np.ndarray:
        """``||r_c - r_i||^2`` for every unit ``i``, for BMU ``c = unit``.

        This is the vector the neighborhood kernel is evaluated on;
        it is precomputed for all pairs at construction, so lookups
        are O(1) per training step (a read-only row view, no copy).
        """
        self._check_unit(unit)
        return self._sq_distances[unit]

    def map_distance(self, first: int, second: int) -> float:
        """Map-space distance between two units."""
        self._check_unit(first)
        self._check_unit(second)
        return float(np.sqrt(self._sq_distances[first, second]))

    def are_lattice_neighbors(self, first: int, second: int) -> bool:
        """True when two units are immediately adjacent on the lattice.

        Used by the topographic-error quality measure: a sample is
        topographically correct when its best and second-best matching
        units are adjacent.
        """
        self._check_unit(first)
        self._check_unit(second)
        if first == second:
            return False
        return bool(self._sq_distances[first, second] <= self._neighbor_limit())

    def lattice_neighbor_mask(
        self, first: np.ndarray, second: np.ndarray
    ) -> np.ndarray:
        """Element-wise :meth:`are_lattice_neighbors` over index arrays.

        One fancy-indexed lookup into :attr:`squared_distance_table`
        with the same threshold, for the vectorized topographic error.
        """
        first = np.asarray(first, dtype=np.intp)
        second = np.asarray(second, dtype=np.intp)
        for units in (first, second):
            if units.size:
                self._check_unit(int(units.min()))
                self._check_unit(int(units.max()))
        return (first != second) & (
            self._sq_distances[first, second] <= self._neighbor_limit()
        )

    def _neighbor_limit(self) -> float:
        """Largest squared map distance between adjacent units."""
        threshold = 1.0 if self._topology == "hexagonal" else np.sqrt(2.0)
        return threshold**2 + 1e-9

    def _check_unit(self, unit: int) -> None:
        if not (0 <= unit < self.num_units):
            raise SOMError(
                f"Grid: unit index {unit} outside 0..{self.num_units - 1}"
            )

    def __repr__(self) -> str:
        return f"Grid(rows={self._rows}, columns={self._columns}, topology={self._topology!r})"
