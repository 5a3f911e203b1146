"""Shared-resource primitives: Resource and Container.

These follow the classic request/release event protocol: ``request()``
(or ``put``/``get``) returns an event that triggers once the operation has
been granted; the requesting process simply yields it.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

from .events import Event, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment
    from .process import Process


class _BaseRequest(Event):
    """Common machinery for queued resource operations."""

    __slots__ = ("resource", "proc")

    def __init__(self, resource: "_BaseResource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.proc: Optional["Process"] = resource.env.active_process

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        if not self.triggered:
            self.resource._remove_waiter(self)

    def __enter__(self) -> "_BaseRequest":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        raise NotImplementedError


class _BaseResource:
    """Shared plumbing: a wait queue drained whenever capacity frees up."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._waiters: list[tuple[int, _BaseRequest]] = []
        self._wseq = 0

    def _push_waiter(self, request: _BaseRequest) -> None:
        self._wseq += 1
        heapq.heappush(self._waiters, (self._wseq, request))

    def _remove_waiter(self, request: _BaseRequest) -> None:
        for i, (_, req) in enumerate(self._waiters):
            if req is request:
                del self._waiters[i]
                heapq.heapify(self._waiters)
                return

    def _try_grant(self, request: _BaseRequest) -> bool:
        raise NotImplementedError

    def _drain(self) -> None:
        """Grant as many queued requests as current capacity allows."""
        while self._waiters:
            _, request = self._waiters[0]
            if not self._try_grant(request):
                break
            heapq.heappop(self._waiters)


class Request(_BaseRequest):
    """A pending or granted claim on one unit of a :class:`Resource`."""

    __slots__ = ()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            self.cancel()


class Resource(_BaseResource):
    """A resource with ``capacity`` identical units, granted FIFO.

    Usage::

        with resource.request() as req:
            yield req
            ... critical section ...
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        super().__init__(env)
        self.capacity = capacity
        self.users: list[Request] = []

    @property
    def count(self) -> int:
        """Number of units currently claimed."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of ungranted requests waiting."""
        return len(self._waiters)

    def request(self) -> Request:
        """Claim one unit; the returned event triggers when granted."""
        req = Request(self)
        if len(self.users) < self.capacity and not self._waiters:
            self.users.append(req)
            req.succeed(priority=URGENT)
        else:
            self._push_waiter(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit."""
        try:
            self.users.remove(request)
        except ValueError:
            return  # Releasing an ungranted/foreign request is a no-op.
        self._drain()

    def _try_grant(self, request: _BaseRequest) -> bool:
        if len(self.users) >= self.capacity:
            return False
        assert isinstance(request, Request)
        self.users.append(request)
        request.succeed(priority=URGENT)
        return True


class ContainerPut(_BaseRequest):
    """Pending deposit of ``amount`` into a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be positive")
        self.amount = amount
        super().__init__(container)

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if not self.triggered:
            self.cancel()


class ContainerGet(_BaseRequest):
    """Pending withdrawal of ``amount`` from a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be positive")
        self.amount = amount
        super().__init__(container)

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if not self.triggered:
            self.cancel()


class Container(_BaseResource):
    """A homogeneous bulk resource (e.g. megabytes of device memory).

    ``put(x)`` blocks while the container would exceed ``capacity``;
    ``get(x)`` blocks while fewer than ``x`` units are available.
    """

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie in [0, capacity]")
        super().__init__(env)
        self.capacity = capacity
        self._level = float(init)
        # Separate queues: puts and gets do not compete with each other.
        self._put_waiters: list[tuple[int, ContainerPut]] = []
        self._get_waiters: list[tuple[int, ContainerGet]] = []

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Deposit ``amount``; triggers once it fits."""
        event = ContainerPut(self, amount)
        if not self._put_waiters and self._level + amount <= self.capacity:
            self._level += amount
            event.succeed(priority=URGENT)
            self._drain_gets()
        else:
            self._wseq += 1
            heapq.heappush(self._put_waiters, (self._wseq, event))  # type: ignore[misc]
        return event

    def release(self, amount: float) -> None:
        """Return ``amount`` that an earlier :meth:`get` withdrew.

        Unlike :meth:`put` this schedules no event: a pool that only
        takes back what it granted never waits for room, so the deposit
        applies at once and waiting gets drain exactly as after a put.
        Returning more than was taken is a caller bug and raises rather
        than blocking or clamping.
        """
        if amount <= 0:
            raise ValueError("amount must be positive")
        level = self._level + amount
        if level > self.capacity:
            raise ValueError(
                f"releasing {amount!r} overfills the container "
                f"(level {self._level!r} of {self.capacity!r})"
            )
        self._level = level
        self._drain_gets()

    def get(self, amount: float) -> ContainerGet:
        """Withdraw ``amount``; triggers once available."""
        event = ContainerGet(self, amount)
        if not self._get_waiters and self._level >= amount:
            self._level -= amount
            event.succeed(priority=URGENT)
            self._drain_puts()
        else:
            self._wseq += 1
            heapq.heappush(self._get_waiters, (self._wseq, event))  # type: ignore[misc]
        return event

    def _remove_waiter(self, request: _BaseRequest) -> None:
        for queue in (self._put_waiters, self._get_waiters):
            for i, (_, req) in enumerate(queue):
                if req is request:
                    del queue[i]
                    heapq.heapify(queue)
                    return

    def _drain_puts(self) -> None:
        while self._put_waiters:
            _, event = self._put_waiters[0]
            if self._level + event.amount > self.capacity:
                break
            heapq.heappop(self._put_waiters)
            self._level += event.amount
            event.succeed(priority=URGENT)

    def _drain_gets(self) -> None:
        while self._get_waiters:
            _, event = self._get_waiters[0]
            if self._level < event.amount:
                break
            heapq.heappop(self._get_waiters)
            self._level -= event.amount
            event.succeed(priority=URGENT)
