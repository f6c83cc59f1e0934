"""Fixtures shared by the serve tests."""

from __future__ import annotations

import pytest


@pytest.fixture(params=["inprocess", "fleet"])
def mode(request) -> str:
    """The two serving modes a lifecycle test runs in.

    ``inprocess`` executes on the threads of a ``Scheduler(concurrency=1)``;
    ``fleet`` runs a front-end ``Scheduler(concurrency=0)`` plus a ``Worker``
    on its own ``JobStore`` connection — the ``repro serve --fleet`` shape,
    with a thread standing in for the worker process.
    """
    return request.param
