"""MBC: the MailBox Controller (paper §2.4).

A hardware queue connecting the 32 dpCores, the ARM A9 pair and the
M0 power-management core — 34 mailboxes in all. Its purpose is quick
exchange of lightweight messages (typically a pointer into DRAM)
while bulk data moves through main memory. Each mailbox has
memory-mapped send/receive registers and an interrupt line to its
owner; we expose that as blocking ``send``/``receive`` with the
paper's register-access and interrupt costs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.config import DPUConfig
from ..sim import Engine, StatsRecorder, Store, Timeout

__all__ = ["Mailbox", "MailboxController", "A9_ID", "M0_ID", "NUM_MAILBOXES"]

A9_ID = 32
M0_ID = 33
NUM_MAILBOXES = 34


class Mailbox:
    """One endpoint's receive queue."""

    def __init__(self, engine: Engine, owner: int, capacity: int = 64) -> None:
        self.engine = engine
        self.owner = owner
        self.queue = Store(engine, capacity=capacity)

    def __len__(self) -> int:
        return len(self.queue)


class MailboxController:
    """All 34 mailboxes plus their interrupt delivery costs.

    A run exchanges messages through a few endpoints (typically core
    0 and the A9), so each mailbox is built at its first send,
    receive or poll.
    """

    def __init__(
        self,
        engine: Engine,
        config: DPUConfig,
        stats: Optional[StatsRecorder] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.stats = stats if stats is not None else StatsRecorder()
        self.mailboxes: Dict[int, Mailbox] = {}
        self._send_cycles = config.mbc_send_cycles
        self._interrupt_cycles = config.mbc_interrupt_cycles

    def _check(self, endpoint: int) -> None:
        if not 0 <= endpoint < NUM_MAILBOXES:
            raise ValueError(
                f"mailbox id {endpoint} outside 0..{NUM_MAILBOXES - 1} "
                f"(dpCores 0-31, A9={A9_ID}, M0={M0_ID})"
            )

    def _mailbox(self, endpoint: int) -> Mailbox:
        """``endpoint``'s mailbox, built on first use."""
        mailbox = self.mailboxes.get(endpoint)
        if mailbox is None:
            self._check(endpoint)
            mailbox = self.mailboxes[endpoint] = Mailbox(self.engine, endpoint)
        return mailbox

    def send(self, src: int, dst: int, payload: Any):
        """Write to ``dst``'s data register; blocks if the queue is
        full (hardware back pressure). Process generator."""
        self._check(src)
        queue = self._mailbox(dst).queue
        yield Timeout(self.engine, self._send_cycles)
        yield queue.put((src, payload))
        self.stats.count("mbc.sent", 1)

    def receive(self, endpoint: int):
        """Block until a message arrives; returns ``(src, payload)``.

        The arrival interrupt plus register reads cost
        ``mbc_interrupt_cycles`` on the receiving core.
        """
        message = yield self._mailbox(endpoint).queue.get()
        yield Timeout(self.engine, self._interrupt_cycles)
        self.stats.count("mbc.received", 1)
        return message

    def try_receive(self, endpoint: int):
        """Non-blocking poll of the mailbox's status register."""
        return self._mailbox(endpoint).queue.try_get()
