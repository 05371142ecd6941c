"""Cooperative cancellation and deadlines for long-running campaigns.

A :class:`CancelToken` is the handshake between a controller (a
signal handler, a drain sequence) and the code doing the work (the recovering cross-section loop, the shard fan-out):
the controller calls :meth:`CancelToken.cancel` — or the token's
absolute deadline passes — and the worker notices at its next
:meth:`~CancelToken.check` and unwinds by raising
:class:`CancelledError` / :class:`DeadlineExpiredError`.

Cancellation is *cooperative and checkpoint-safe by construction*: the
instrumented loops only check between durable units of work (runs,
shards), so an interrupted campaign always leaves its completed units
checkpointed and resumable — resuming a cancelled campaign is
bit-identical to never having interrupted it (the PR 3 ascending-run
delta fold does not care why the first attempt stopped).

The clock is injectable so deadline tests need no real sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.util.validation import ReproError


class CancelledError(ReproError):
    """The unit of work was cooperatively cancelled.

    Deliberately *not* an ``OSError``: the retry taxonomy must never
    treat cancellation as a transient failure to retry through.
    """

    def __init__(self, message: str, *, reason: str = "cancelled") -> None:
        super().__init__(message)
        self.reason = reason


class DeadlineExpiredError(CancelledError):
    """The token's absolute deadline passed before the work finished."""

    def __init__(self, message: str) -> None:
        super().__init__(message, reason="deadline")


class CancelToken:
    """A thread-safe cancel flag with an optional absolute deadline.

    ``deadline`` is an absolute timestamp on the token's ``clock``
    (default ``time.monotonic``); :meth:`with_timeout` builds one from
    a relative budget.  Tokens are single-use: once cancelled or
    expired they stay that way.
    """

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.clock = clock
        self.deadline = None if deadline is None else float(deadline)
        self._event = threading.Event()
        self._reason = ""

    @classmethod
    def with_timeout(
        cls,
        timeout_s: Optional[float],
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> "CancelToken":
        """A token expiring ``timeout_s`` seconds from now (None = no
        deadline)."""
        deadline = None if timeout_s is None else clock() + float(timeout_s)
        return cls(deadline=deadline, clock=clock)

    # -- controller side --------------------------------------------------
    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (idempotent; first reason wins)."""
        if not self._event.is_set():
            self._reason = reason or "cancelled"
            self._event.set()

    # -- worker side ------------------------------------------------------
    @property
    def cancel_requested(self) -> bool:
        return self._event.is_set()

    @property
    def expired(self) -> bool:
        return self.deadline is not None and self.clock() >= self.deadline

    @property
    def cancelled(self) -> bool:
        """True when the worker should stop (explicit cancel OR expiry)."""
        return self.cancel_requested or self.expired

    @property
    def reason(self) -> str:
        if self._event.is_set():
            return self._reason
        if self.expired:
            return "deadline"
        return ""

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (None = unbounded, min 0.0)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.clock())

    def check(self, what: str = "campaign") -> None:
        """Raise if cancellation was requested or the deadline passed.

        This is the one call instrumented loops place between durable
        units of work.
        """
        if self._event.is_set():
            raise CancelledError(
                f"{what} cancelled: {self._reason}", reason=self._reason
            )
        if self.expired:
            raise DeadlineExpiredError(f"{what} deadline expired")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("cancelled" if self._event.is_set()
                 else "expired" if self.expired else "live")
        return f"CancelToken({state}, deadline={self.deadline})"


# ---------------------------------------------------------------------------
# ambient (thread-local) cancel scope
# ---------------------------------------------------------------------------
#
# Deep layers (the shard fan-out) should be cancellable without every
# intermediate signature growing a ``cancel=`` parameter.  The scope is
# thread-local on purpose: one thread's cancellation must never leak
# into a reduction running on another thread of the same process.

_scope = threading.local()


def current_cancel() -> Optional[CancelToken]:
    """The innermost ambient token for this thread (None = none)."""
    return getattr(_scope, "token", None)


class cancel_scope:
    """Context manager installing ``token`` as the thread's ambient
    cancel token; restores the previous one on exit."""

    def __init__(self, token: Optional[CancelToken]) -> None:
        self._token = token
        self._prev: Optional[CancelToken] = None

    def __enter__(self) -> Optional[CancelToken]:
        self._prev = getattr(_scope, "token", None)
        _scope.token = self._token
        return self._token

    def __exit__(self, *exc: object) -> None:
        _scope.token = self._prev
