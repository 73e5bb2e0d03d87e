"""Interrupt-safe cleanup of on-disk workspaces.

The checkpoint subsystem (:mod:`repro.dataflow.checkpoint`) and the job
server (:mod:`repro.server.service`) keep durable artifacts in
directories they write via tmp-then-rename.  A driver interrupted by
Ctrl-C or ``kill`` between writing a temp file and renaming it would
leave the ``*.tmp`` behind: nothing between the signal and process death
ran the cleanup.

This module keeps a registry of live workspace paths and installs — once,
lazily, on the first registration — an :mod:`atexit` hook plus SIGINT and
SIGTERM handlers that sweep the registry before the process dies.  There
is one cleanup discipline, ``TMP_ONLY``: remove only ``*.tmp`` litter, so
a half-written frame file never survives an interrupt, while completed
checkpoints — the whole point of the subsystem — do.  (A ``TREE``
discipline that removed a whole scratch directory served the on-disk
shuffle, which is gone.)

Registrations are tagged with the registering PID: forked pool workers
inherit the registry but must never sweep the driver's workspaces, and
the handlers chain to whatever handler was installed before them, so a
hosting application's own signal semantics are preserved.  A hard
``SIGKILL`` (or an injected driver crash, which exits via ``os._exit``)
bypasses all of this by design — that is exactly the scenario the
checkpoint subsystem recovers from.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
from typing import Dict, List, Tuple

__all__ = ["TMP_ONLY", "register", "unregister", "cleanup_registered"]

#: Remove only ``*.tmp`` files under the directory (durable workspaces).
TMP_ONLY = "tmp-only"

_KINDS = (TMP_ONLY,)

#: Signals whose delivery should sweep the registry before dying.
_SIGNALS = (signal.SIGINT, signal.SIGTERM)

_lock = threading.Lock()
_registry: Dict[int, Tuple[str, str, int]] = {}  # token -> (path, kind, pid)
_next_token = 0
_installed = False
_previous_handlers: Dict[int, object] = {}


def register(path: str, kind: str = TMP_ONLY) -> int:
    """Track ``path`` for cleanup on exit/interrupt; returns a token."""
    if kind not in _KINDS:
        raise ValueError(f"unknown workspace kind {kind!r} (expected one of {_KINDS})")
    global _next_token
    with _lock:
        _install_handlers()
        token = _next_token
        _next_token += 1
        _registry[token] = (str(path), kind, os.getpid())
    return token


def unregister(token: int) -> None:
    """Stop tracking a workspace (its owner cleaned it up normally)."""
    with _lock:
        _registry.pop(token, None)


def cleanup_registered() -> List[str]:
    """Sweep every workspace registered by *this* process; returns the paths.

    Idempotent and exception-free by construction: the sweep runs from
    signal handlers and ``atexit``, where a raised error would mask the
    interrupt itself.
    """
    with _lock:
        mine = [
            (token, path, kind)
            for token, (path, kind, pid) in list(_registry.items())
            if pid == os.getpid()
        ]
        for token, _path, _kind in mine:
            _registry.pop(token, None)
    cleaned: List[str] = []
    for _token, path, _kind in mine:
        try:
            _remove_tmp_litter(path)
            cleaned.append(path)
        except OSError:  # pragma: no cover - defensive; never propagate
            pass
    return cleaned


def _remove_tmp_litter(path: str) -> None:
    """Delete ``*.tmp`` files under ``path``, keeping durable contents."""
    for dirpath, _dirnames, filenames in os.walk(path):
        for filename in filenames:
            if filename.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(dirpath, filename))
                except OSError:
                    pass


def _handle_signal(signum: int, frame) -> None:
    cleanup_registered()
    previous = _previous_handlers.get(signum)
    if callable(previous):
        # Chain: e.g. Python's default SIGINT handler raises
        # KeyboardInterrupt, preserving normal unwinding semantics.
        previous(signum, frame)
    else:
        # SIG_DFL/SIG_IGN cannot be called; re-deliver with the default
        # disposition so the exit status reports death-by-signal.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


def _install_handlers() -> None:
    """Install the atexit hook + signal handlers once (caller holds _lock)."""
    global _installed
    if _installed:
        return
    atexit.register(cleanup_registered)
    for signum in _SIGNALS:
        try:
            _previous_handlers[signum] = signal.signal(signum, _handle_signal)
        except ValueError:
            # signal.signal only works in the main thread of the main
            # interpreter; workspaces registered elsewhere still get the
            # atexit sweep.
            pass
    _installed = True
