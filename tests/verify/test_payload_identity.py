"""Observing a run never changes its result: payload identity per experiment.

Every registered experiment whose payload is deterministic runs at its
first parameter point twice — plain, and under a live
:class:`repro.obs.Observer` — and the sha256 of the pickled payload must
match.  This is the whole-payload form of the ``agcm-plain-vs-observed``
differential pair, which checks only the AGCM: a mode that drops phase
accounting (the Dynamics/Physics/filter split of the paper's tables)
shows up here as a changed table, whichever experiment reads it.

Deselected from tier-1 (see pyproject addopts); run with::

    PYTHONPATH=src python -m pytest -m differential -q
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.campaign.units import enumerate_units, execute_unit
from repro.obs import Observer, activate
from repro.reporting.experiments import EXPERIMENTS

pytestmark = pytest.mark.differential

#: Experiments whose payloads hold host wall-clock timings, so two runs
#: never agree bit for bit, observed or not.
WALL_CLOCK_EXPERIMENTS = ("blockarray", "advection_opt", "pointwise")

_DETERMINISTIC = [
    ident for ident in EXPERIMENTS if ident not in WALL_CLOCK_EXPERIMENTS
]


def _payload_sha256(value) -> str:
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()


def test_wall_clock_exclusions_are_registered():
    assert set(WALL_CLOCK_EXPERIMENTS) <= set(EXPERIMENTS)


@pytest.mark.parametrize("ident", _DETERMINISTIC)
def test_observed_payload_matches_plain(ident):
    point = EXPERIMENTS[ident].param_points()[0]
    (unit,) = enumerate_units([f"{ident}@{point.label}"])
    plain = _payload_sha256(execute_unit(unit))
    with activate(Observer()):
        observed = _payload_sha256(execute_unit(unit))
    assert observed == plain, (
        f"{ident}@{point.label}: payload changed under a live observer"
    )
