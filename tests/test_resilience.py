"""Request deadlines: the per-request budget behind ``ppm serve --request-timeout``.

:class:`~repro.serve.deadline.Deadline` is a monotonic budget checked
between the phases of a mining request and bounding the awaitables the
server schedules on its behalf.
"""

from __future__ import annotations

import pytest

from repro.core.errors import DeadlineExceeded, ServeError
from repro.serve.deadline import Deadline


class TestDeadline:
    """The per-request budget behind ``--request-timeout``."""

    def test_fresh_deadline_is_live(self):
        deadline = Deadline.start(60.0)
        assert not deadline.expired
        assert 0.0 < deadline.remaining() <= 60.0
        assert deadline.elapsed() >= 0.0

    def test_tiny_deadline_expires(self):
        deadline = Deadline.start(1e-9)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ServeError):
            Deadline.start(0.0)
        with pytest.raises(ServeError):
            Deadline.start(-3.0)

    def test_check_passes_while_live(self):
        Deadline.start(60.0).check("anything")

    def test_check_raises_once_expired(self):
        deadline = Deadline.start(1e-9)
        with pytest.raises(DeadlineExceeded, match="scan phase"):
            deadline.check("scan phase")

    def test_bound_returns_result_within_budget(self):
        import asyncio

        async def quick():
            return 42

        async def scenario():
            return await Deadline.start(60.0).bound(quick())

        assert asyncio.run(scenario()) == 42

    def test_bound_raises_on_slow_awaitable(self):
        import asyncio

        async def slow():
            await asyncio.sleep(5.0)

        async def scenario():
            await Deadline.start(0.02).bound(slow(), "mine request")

        with pytest.raises(DeadlineExceeded, match="mine request"):
            asyncio.run(scenario())

    def test_bound_on_expired_deadline_never_schedules(self):
        import asyncio

        ran = []

        async def work():
            ran.append(True)

        async def scenario():
            deadline = Deadline.start(1e-9)
            await deadline.bound(work())

        with pytest.raises(DeadlineExceeded):
            asyncio.run(scenario())
        # The coroutine was closed, not silently started.
        assert ran == []
