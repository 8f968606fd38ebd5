"""Cooperative cancellation tokens for in-flight work items.

Python threads cannot be interrupted, so the watchdog's "cancel that hung
item" operation is *cooperative*: every supervised pipeline stage installs
a :class:`CancelToken` for the item it is currently processing, and code
running under that item can poll :func:`current_token` and bail out with
:class:`ItemCancelled` once the watchdog has flagged the item.  In phase 1
that code is the tile read (an injected hang polls its token), and
:meth:`repro.core.kernel.Phase1Kernel.try_read` is the one handler of the
exception.

The token is a plain boolean flag (no :class:`threading.Event`): setting
and reading it are GIL-atomic, and the hot path -- one token per stage
item -- must stay allocation-light so an enabled-but-idle watchdog costs
nothing measurable.
"""

from __future__ import annotations

import threading
import time


class ItemCancelled(Exception):
    """The current work item was cancelled (typically by the watchdog).

    Raised from *inside* a handler by cooperative code that polls the
    item's :class:`CancelToken`.  The tile read's error policy never
    retries it (the token stays cancelled): a skip policy drops the tile
    at once, an abort policy fails the run.
    """


class CancelToken:
    """Per-item cancellation flag with optional bookkeeping fields."""

    __slots__ = ("cancelled", "reason")

    def __init__(self) -> None:
        self.cancelled = False
        self.reason: str | None = None

    def cancel(self, reason: str | None = None) -> None:
        """Flag the item as cancelled; idempotent (first reason wins)."""
        if not self.cancelled:
            self.reason = reason
            self.cancelled = True

    def raise_if_cancelled(self) -> None:
        if self.cancelled:
            raise ItemCancelled(self.reason or "item cancelled")

    def sleep(self, seconds: float, poll: float = 0.002) -> None:
        """Sleep in short slices, raising :class:`ItemCancelled` promptly.

        The cooperative analogue of ``time.sleep`` for code that may be
        supervised: a watchdog cancellation interrupts the wait within
        ``poll`` seconds instead of after the full duration.
        """
        deadline = time.monotonic() + seconds
        while True:
            self.raise_if_cancelled()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(poll, remaining))


_tls = threading.local()


def current_token() -> CancelToken | None:
    """The cancel token of the item the calling thread is processing."""
    return getattr(_tls, "token", None)


def install_token(token: CancelToken | None) -> CancelToken | None:
    """Install ``token`` for the calling thread; returns the previous one.

    Used as a manual push/pop pair by :func:`enter_item` /
    :func:`exit_item` (a context manager would allocate a generator per
    item on the hot path)::

        prev = install_token(token)
        try:
            handler(item)
        finally:
            install_token(prev)
    """
    prev = getattr(_tls, "token", None)
    _tls.token = token
    return prev


def enter_item(inflight: dict, worker, key) -> CancelToken | None:
    """Start supervising one item on the calling thread.

    Installs a fresh :class:`CancelToken` and lists the item in
    ``inflight`` under ``worker`` as ``(worker, key, started_monotonic,
    token)``, the entry a :class:`~repro.recovery.watchdog.Watchdog` reads
    from a stage's ``inflight()``.  Returns the token it replaced; pass it
    to :func:`exit_item` when the item ends.
    """
    token = CancelToken()
    inflight[worker] = (worker, key, time.monotonic(), token)
    return install_token(token)


def exit_item(inflight: dict, worker, prev: CancelToken | None) -> None:
    """End the item :func:`enter_item` started: unlist it, restore ``prev``."""
    inflight.pop(worker, None)
    install_token(prev)
