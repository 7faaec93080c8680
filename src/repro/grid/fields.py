"""Field containers: separate-array vs block-array storage layouts.

Paper Section 3.4 studies two ways of storing the model's many discrete
fields:

* **separate arrays** — one contiguous array per physical variable (the
  original AGCM layout);
* **block array** — a single array ``f[m, j, i, k]`` holding all ``m``
  fields, so that the values of different variables at the same grid cell
  sit close together in memory.

:class:`FieldSet` supports both layouts behind one interface, so the same
kernels can run on either and the cache experiments of
:mod:`repro.perf.access_patterns` can generate address streams for both.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

SEPARATE = "separate"
BLOCK = "block"
_LAYOUTS = (SEPARATE, BLOCK)


class FieldSet:
    """A named set of same-shaped fields in a chosen memory layout.

    Parameters
    ----------
    names:
        Field names, order defines the block-array slot order.
    shape:
        Common shape of each field (e.g. ``(nlat, nlon, nlayers)``).
    layout:
        ``"separate"`` or ``"block"``.
    dtype:
        Element dtype (default float64).
    """

    def __init__(
        self,
        names: Sequence[str],
        shape: Tuple[int, ...],
        layout: str = SEPARATE,
        dtype=np.float64,
    ):
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names: {names}")
        if not names:
            raise ValueError("need at least one field")
        if layout not in _LAYOUTS:
            raise ValueError(f"layout must be one of {_LAYOUTS}, got {layout!r}")
        self.names = names
        self.shape = tuple(shape)
        self.layout = layout
        self.dtype = np.dtype(dtype)
        if layout == SEPARATE:
            self._arrays: Dict[str, np.ndarray] = {
                name: np.zeros(self.shape, dtype=dtype) for name in names
            }
            self._block = None
        else:
            self._block = np.zeros((len(names), *self.shape), dtype=dtype)
            self._arrays = {}
        self._index = {name: i for i, name in enumerate(names)}

    # -- access ---------------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        """The field array (a view for block layout — writes propagate)."""
        if self.layout == SEPARATE:
            return self._arrays[name]
        return self._block[self._index[name]]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        """Assign into the field's storage (shape-checked, copies data)."""
        target = self[name]
        value = np.asarray(value, dtype=self.dtype)
        if value.shape != target.shape:
            raise ValueError(
                f"field {name!r}: shape {value.shape} != {target.shape}"
            )
        target[...] = value

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterable[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    # -- layout conversion -------------------------------------------------
    def block_view(self) -> np.ndarray:
        """The underlying block array (block layout only)."""
        if self.layout != BLOCK:
            raise ValueError("block_view() requires the block layout")
        return self._block

    def to_layout(self, layout: str) -> "FieldSet":
        """Return a copy of this field set in another layout."""
        other = FieldSet(self.names, self.shape, layout=layout, dtype=self.dtype)
        for name in self.names:
            other[name] = self[name]
        return other

    def copy(self) -> "FieldSet":
        """Deep copy preserving the layout."""
        return self.to_layout(self.layout)

    # -- bulk helpers --------------------------------------------------------
    def fill_random(self, rng: np.random.Generator, scale: float = 1.0) -> None:
        """Fill every field with reproducible random values (tests/benches)."""
        for name in self.names:
            self[name] = scale * rng.standard_normal(self.shape)

    def allclose(self, other: "FieldSet", **kwargs) -> bool:
        """True if every field matches ``other`` (layouts may differ)."""
        if set(self.names) != set(other.names):
            return False
        return all(
            np.allclose(self[name], other[name], **kwargs) for name in self.names
        )

    @property
    def nbytes(self) -> int:
        """Total bytes of field data."""
        per_field = int(np.prod(self.shape)) * self.dtype.itemsize
        return per_field * len(self.names)
