"""Model history files — the NetCDF substitute.

The real AGCM reads and writes NetCDF history files; NetCDF is not
available here (and was not on the Paragon either, hence the byte-order
routine), so history is stored as a simple self-describing container:
an ``.npz`` archive holding the prognostic fields of each snapshot plus a
metadata record.  The format supports:

* appending snapshots during a run,
* restarting a model from any snapshot,
* optional big-endian raw export/import via :mod:`repro.io.byteorder`
  (exercising the Paragon conversion path in tests).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.dynamics.state import ModelState, PROGNOSTIC_NAMES

_FORMAT_VERSION = 1


@dataclass
class HistoryMetadata:
    """Run-level metadata stored with every history file."""

    nlat: int
    nlon: int
    nlayers: int
    dt: float
    description: str = ""
    format_version: int = _FORMAT_VERSION

    def to_json(self) -> str:
        return json.dumps(self.__dict__)

    @classmethod
    def from_json(cls, text: str) -> "HistoryMetadata":
        data = json.loads(text)
        return cls(**data)


class HistoryWriter:
    """Accumulates snapshots in memory and writes one ``.npz`` archive.

    Snapshots are cheap relative to model state (a few MB at the paper's
    resolution), so buffered writing keeps the format trivial.
    """

    def __init__(self, path, metadata: HistoryMetadata):
        self.path = Path(path)
        self.metadata = metadata
        self._snapshots: List[Dict[str, np.ndarray]] = []
        self._times: List[float] = []

    def append(self, state: ModelState) -> None:
        """Record one snapshot (fields are copied)."""
        expected = (self.metadata.nlat, self.metadata.nlon, self.metadata.nlayers)
        if state.shape != expected:
            raise ValueError(
                f"state shape {state.shape} does not match history {expected}"
            )
        self._snapshots.append(
            {name: getattr(state, name).copy() for name in PROGNOSTIC_NAMES}
        )
        self._times.append(state.time)

    def __len__(self) -> int:
        return len(self._snapshots)

    def save(self) -> Path:
        """Write the archive; returns the path."""
        payload: Dict[str, np.ndarray] = {
            "_times": np.asarray(self._times),
        }
        for idx, snap in enumerate(self._snapshots):
            for name, arr in snap.items():
                payload[f"snap{idx:05d}_{name}"] = arr
        payload["_metadata"] = np.frombuffer(
            self.metadata.to_json().encode(), dtype=np.uint8
        )
        np.savez_compressed(self.path, **payload)
        return self.path


class HistoryReader:
    """Reads a history archive written by :class:`HistoryWriter`."""

    def __init__(self, path):
        self.path = Path(path)
        with np.load(self.path) as data:
            meta_bytes = bytes(data["_metadata"].tobytes())
            self.metadata = HistoryMetadata.from_json(meta_bytes.decode())
            self.times = data["_times"].tolist()
            self._fields: Dict[int, Dict[str, np.ndarray]] = {}
            for key in data.files:
                if key.startswith("snap"):
                    idx = int(key[4:9])
                    name = key[10:]
                    self._fields.setdefault(idx, {})[name] = data[key]

    def __len__(self) -> int:
        return len(self.times)

    def snapshot(self, index: int) -> ModelState:
        """Reconstruct the :class:`ModelState` of snapshot ``index``."""
        if not -len(self.times) <= index < len(self.times):
            raise IndexError(f"snapshot {index} out of range ({len(self.times)})")
        if index < 0:
            index += len(self.times)
        fields = self._fields[index]
        state = ModelState(
            **{name: fields[name].copy() for name in PROGNOSTIC_NAMES},
            time=self.times[index],
        )
        return state

    def last(self) -> ModelState:
        """The final snapshot (restart point)."""
        return self.snapshot(len(self.times) - 1)
