"""The message fabric: seeded, deterministic unreliable daemon links.

Every condor daemon pair (schedd↔negotiator, schedd↔startd,
startd↔collector, negotiator↔collector) routes through one fabric. A
message is a ``(src, dst, kind, payload)`` tuple; each directed link
assigns consecutive sequence numbers at send time, and the fabric
provides:

* **Delay**: each transmission attempt draws an independent one-way
  latency (base + uniform jitter), so later attempts can overtake
  earlier ones — natural reordering.
* **Loss / duplication**: per-attempt seeded coin flips.
* **Scripted partitions**: windows during which matching endpoints are
  unreachable (drops at send time; retransmission rides it out).
* **At-least-once delivery**: each attempt pushes a retransmit
  deadline (a seeded exponential backoff) onto one heap per fabric,
  and one kernel timer is armed at the earliest deadline not yet
  acknowledged, so an acked message costs no timer event. When the
  timer fires it resends the due, unacked messages and re-arms. Acks
  travel through the same lossy weather.
* **Idempotent, in-order dispatch**: the receiver side of each link
  drops duplicate sequence numbers (re-acking them — the ack may have
  been the lost half) and buffers ahead-of-sequence arrivals until the
  gap fills, so handlers observe each message exactly once, in send
  order. FIFO per link is what lets the claim protocol reason about
  "release follows renew" without per-message state.

Determinism: one ``random.Random(seed)`` drives every draw, consumed in
kernel event order — which the simulation kernel makes deterministic —
so a fixed seed replays byte-identically. No wall clock, no builtin
``hash``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional

import random

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim import Environment, Event
from ..sim.events import URGENT
from .profile import NetProfile

#: Well-known endpoint names (startds use :func:`startd_endpoint`).
SCHEDD = "schedd"
NEGOTIATOR = "negotiator"
COLLECTOR = "collector"


def startd_endpoint(node: str) -> str:
    """The fabric endpoint name of one node's startd."""
    return f"startd:{node}"


@dataclass
class Message:
    """One fabric message (identity = ``(src, dst, seq)``)."""

    src: str
    dst: str
    kind: str
    payload: dict
    seq: int
    send_time: float


@dataclass
class FabricStats:
    """Counters for one fabric's lifetime (one simulation cell)."""

    messages_sent: int = 0
    attempts: int = 0
    delivered: int = 0
    retransmits: int = 0
    losses: int = 0
    duplicates_sent: int = 0
    duplicates_dropped: int = 0
    partition_drops: int = 0
    down_drops: int = 0
    acks_lost: int = 0


class _Link:
    """Directed-link state: sender sequence counter + receiver window."""

    __slots__ = ("tx_seq", "rx_next", "rx_buffer")

    def __init__(self) -> None:
        self.tx_seq = 0
        self.rx_next = 0
        self.rx_buffer: dict[int, Message] = {}


class _Outstanding:
    """Sender-side delivery state for one message."""

    __slots__ = ("acked", "on_delivered")

    def __init__(self, on_delivered: Optional[Callable[[Message], None]]) -> None:
        self.acked = False
        self.on_delivered = on_delivered


class MessageFabric:
    """Routes daemon messages through seeded network weather."""

    def __init__(self, env: Environment, profile: NetProfile, seed: int) -> None:
        self.env = env
        self.profile = profile
        self.rng = random.Random(seed)
        self.stats = FabricStats()
        self._handlers: dict[tuple[str, str], Callable[[Message], None]] = {}
        self._links: dict[tuple[str, str], _Link] = {}
        self._down: set[str] = set()
        # Partition windows already announced to the tracer (by index),
        # so each window emits one open instant, not one per drop.
        self._announced: set[int] = set()
        # Sends of this instant awaiting their first attempt, in send
        # order; non-empty exactly while a flush event is queued.
        self._pending: list[tuple[Message, _Outstanding]] = []
        # Retransmit deadlines ``(deadline, n, message, out, attempt,
        # rto)``; ``n`` keeps equal deadlines in push order.
        self._deadlines: list[tuple] = []
        self._pushed = 0
        # Fire times of the kernel timers armed and not yet fired.
        self._timers: list[float] = []

    # -- wiring -----------------------------------------------------------

    def register(
        self, endpoint: str, kind: str, handler: Callable[[Message], None]
    ) -> None:
        """Install the handler for ``kind`` messages arriving at ``endpoint``."""
        key = (endpoint, kind)
        if key in self._handlers:
            raise ValueError(f"handler for {kind!r} at {endpoint!r} already set")
        self._handlers[key] = handler

    def set_down(self, endpoint: str) -> None:
        """Take an endpoint offline: it neither sends nor receives.

        Retransmit deadlines keep falling due; delivery resumes once
        the endpoint comes back (daemon restart keeps the TCP analogy
        simple: the transport state survives).
        """
        self._down.add(endpoint)

    def set_up(self, endpoint: str) -> None:
        self._down.discard(endpoint)

    def is_down(self, endpoint: str) -> bool:
        return endpoint in self._down

    # -- sending ----------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: dict,
        on_delivered: Optional[Callable[[Message], None]] = None,
    ) -> Message:
        """Queue a message for at-least-once delivery; returns it.

        ``on_delivered`` fires once, when the first acknowledgement
        reaches the sender (i.e. the sender *knows* the message landed —
        delivery itself may have happened earlier).
        """
        link = self._link(src, dst)
        message = Message(
            src=src,
            dst=dst,
            kind=kind,
            payload=payload,
            seq=link.tx_seq,
            send_time=self.env.now,
        )
        link.tx_seq += 1
        self.stats.messages_sent += 1
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("net.messages").inc()
        # The first attempt runs in an URGENT slot of this instant, one
        # flush for every send of the instant, drained in send order:
        # only fabric events draw from its RNG, so the draw order is
        # that of one URGENT slot per send.
        if not self._pending:
            flush = Event(self.env)
            flush.callbacks.append(self._flush)
            flush.succeed(priority=URGENT)
        self._pending.append((message, _Outstanding(on_delivered)))
        return message

    # -- internals --------------------------------------------------------

    def _link(self, src: str, dst: str) -> _Link:
        link = self._links.get((src, dst))
        if link is None:
            link = self._links[(src, dst)] = _Link()
        return link

    def _partitioned(self, src: str, dst: str, now: float) -> bool:
        for i, window in enumerate(self.profile.partitions):
            if window.cuts(src, dst, now):
                if i not in self._announced:
                    self._announced.add(i)
                    tracer = _trace.ACTIVE
                    if tracer is not None:
                        tracer.complete(
                            "partition",
                            "net",
                            window.start_s,
                            window.end_s,
                            tid=_trace.NET_TID,
                            pattern=window.pattern,
                        )
                    registry = _metrics.ACTIVE
                    if registry is not None:
                        registry.counter("net.partition_windows").inc()
                return True
        return False

    def _flush(self, _event: Event) -> None:
        pending, self._pending = self._pending, []
        rto = self.profile.rto_initial_s
        for message, out in pending:
            self._attempt(message, out, 1, rto)
        self._arm()

    def _attempt(
        self, message: Message, out: _Outstanding, attempt: int, rto: float
    ) -> None:
        """Transmit, then push the retransmit deadline; the caller arms
        the timer once its batch of attempts is done."""
        self._transmit(message, out, attempt)
        # Seeded jitter on the backoff so simultaneous losses don't
        # retransmit in lockstep (the same storm-avoidance argument as
        # RetryPolicy jitter, at the transport layer).
        deadline = self.env.now + rto * (0.5 + self.rng.random())
        self._pushed += 1
        heappush(
            self._deadlines, (deadline, self._pushed, message, out, attempt, rto)
        )

    def _arm(self) -> None:
        """Arm a kernel timer at the earliest unacked deadline, unless
        one is already armed at or before it."""
        deadlines = self._deadlines
        while deadlines and deadlines[0][3].acked:
            heappop(deadlines)
        if not deadlines:
            return
        when = deadlines[0][0]
        timers = self._timers
        if timers and timers[0] <= when:
            return
        heappush(timers, when)
        self.env.timeout_at(when).callbacks.append(self._retransmit_due)

    def _retransmit_due(self, _event: Event) -> None:
        """Resend every due, unacked message in deadline order, then
        re-arm (a timer armed before an earlier one finds nothing due)."""
        heappop(self._timers)
        now = self.env.now
        profile = self.profile
        deadlines = self._deadlines
        while deadlines and deadlines[0][0] <= now:
            _, _, message, out, attempt, rto = heappop(deadlines)
            if not out.acked:
                backoff = min(rto * profile.rto_backoff, profile.rto_max_s)
                self._attempt(message, out, attempt + 1, backoff)
        self._arm()

    def _transmit(self, message: Message, out: _Outstanding, attempt: int) -> None:
        profile = self.profile
        rng = self.rng
        # Fixed draw order per attempt (delay, loss, dup) keeps the
        # stream alignment independent of partition/down state.
        delay = profile.delay_base_s + rng.random() * profile.delay_jitter_s
        lost = rng.random() < profile.loss
        duplicated = rng.random() < profile.dup
        self.stats.attempts += 1
        if attempt > 1:
            self.stats.retransmits += 1
            registry = _metrics.ACTIVE
            if registry is not None:
                registry.counter("net.retransmits").inc()
        now = self.env.now
        if message.src in self._down or message.dst in self._down:
            self.stats.down_drops += 1
            return
        if self._partitioned(message.src, message.dst, now):
            self.stats.partition_drops += 1
            return
        if lost:
            self.stats.losses += 1
            return

        def deliver(_event: Event) -> None:
            self._deliver(message, out)

        self._schedule(delay, deliver)
        if duplicated:
            self.stats.duplicates_sent += 1
            dup_delay = profile.delay_base_s + rng.random() * profile.delay_jitter_s
            self._schedule(dup_delay, deliver)

    def _schedule(self, delay: float, action: Callable[[Event], None]) -> None:
        # A bare timeout with its callback appended — one heap event per
        # flight, no generator process.
        self.env.timeout(delay).callbacks.append(action)

    def _deliver(self, message: Message, out: _Outstanding) -> None:
        if message.dst in self._down:
            # Receiver offline: the copy evaporates, no ack.
            self.stats.down_drops += 1
            return
        link = self._link(message.src, message.dst)
        if message.seq < link.rx_next or message.seq in link.rx_buffer:
            self.stats.duplicates_dropped += 1
            registry = _metrics.ACTIVE
            if registry is not None:
                registry.counter("net.duplicates_dropped").inc()
        else:
            link.rx_buffer[message.seq] = message
            while link.rx_next in link.rx_buffer:
                ready = link.rx_buffer.pop(link.rx_next)
                link.rx_next += 1
                self.stats.delivered += 1
                self._dispatch(ready)
        # Every received copy is acknowledged — the earlier ack may have
        # been the lost half of the round trip.
        self._send_ack(message, out)

    def _dispatch(self, message: Message) -> None:
        handler = self._handlers.get((message.dst, message.kind))
        if handler is None:
            raise KeyError(
                f"no handler for {message.kind!r} at {message.dst!r}"
            )
        handler(message)

    def _send_ack(self, message: Message, out: _Outstanding) -> None:
        profile = self.profile
        rng = self.rng
        delay = profile.delay_base_s + rng.random() * profile.delay_jitter_s
        lost = rng.random() < profile.loss
        if message.dst in self._down or message.src in self._down:
            self.stats.down_drops += 1
            return
        if self._partitioned(message.dst, message.src, self.env.now):
            self.stats.partition_drops += 1
            return
        if lost:
            self.stats.acks_lost += 1
            return
        self._schedule(delay, lambda _event: self._ack_arrived(message, out))

    def _ack_arrived(self, message: Message, out: _Outstanding) -> None:
        if out.acked:
            return
        out.acked = True
        if out.on_delivered is not None:
            out.on_delivered(message)

    def __repr__(self) -> str:
        return (
            f"<MessageFabric sent={self.stats.messages_sent} "
            f"delivered={self.stats.delivered} "
            f"retransmits={self.stats.retransmits}>"
        )
