"""Column-labeled numeric data matrix used throughout the package.

The table is held column-major, so each column is one contiguous block:
the ordering and the hierarchy's steps refill their designs from it
column by column, and each copy is one block move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite, UnknownColumn


@dataclass(frozen=True)
class Dataset:
    """An n-by-c matrix of finite floats with unique column labels.

    Column 0 is conventionally (but not necessarily) the response.
    Instances are immutable: ``values`` is read-only, and the transforms
    of :mod:`impactreg.transforms` return a new dataset.  ``values`` is
    column-major.  The constructor copies the given array, whatever its
    layout, dtype or flags, so nothing its caller holds can write the
    table: not the array, not a base it views, and not the array once
    its caller turns writing back on.  The one table kept as it is comes
    through ``_adopt``, from a caller that made it and hands it over.
    So the values are checked once, here, and the package trusts them
    after.
    """

    column_names: tuple[str, ...]
    values: np.ndarray
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._keep(np.array(self.values, dtype=float, order="F"))

    @classmethod
    def _adopt(cls, column_names, values):
        """A dataset of ``values`` itself, with no copy.

        ``values`` is a column-major float64 array that its caller made
        and hands over: nothing else holds it, views it or writes it
        again.  ``transforms.apply_transforms`` builds its result this
        way, so an ``analyze`` request holds one table.
        """
        data = object.__new__(cls)
        object.__setattr__(data, "column_names", column_names)
        data._keep(values)
        return data

    def _keep(self, values):
        """Check the names and the column-major float64 ``values``, and
        keep both, the values read-only."""
        names = tuple(str(c) for c in self.column_names)
        if values.ndim != 2:
            raise DimensionMismatch("values must be a 2-d array")
        if values.shape[1] != len(names):
            raise DimensionMismatch(
                f"{len(names)} column names for {values.shape[1]} columns")
        if len(set(names)) != len(names):
            raise DimensionMismatch("duplicate column names")
        if values.shape[0] < 2:
            raise DimensionMismatch("need at least 2 observations")
        if not np.all(np.isfinite(values)):
            raise NonFinite("dataset contains NaN or infinite entries")
        values.setflags(write=False)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_index", {c: j for j, c in enumerate(names)})

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def index(self, column: str) -> int:
        try:
            return self._index[column]
        except KeyError:
            raise UnknownColumn(column) from None

    def column(self, column: str) -> np.ndarray:
        return self.values[:, self.index(column)]

    def columns(self, columns) -> np.ndarray:
        idx = [self.index(c) for c in columns]
        return self.values[:, idx]

    def design(self, columns) -> np.ndarray:
        """The column-major design ``[1, columns...]``: an intercept, then
        the named columns, in a new array that the caller owns.

        Each column is copied straight into its place, with no row-major
        copy of the selection on the way: ``columns(names)`` followed by
        a column-major copy holds two copies at once.  The kernel factors
        the design in place.
        """
        design = np.empty((self.n, len(columns) + 1), order="F")
        design[:, 0] = 1.0
        for k, column in enumerate(columns, start=1):
            design[:, k] = self.values[:, self.index(column)]
        return design
