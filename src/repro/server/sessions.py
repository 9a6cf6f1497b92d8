"""Named analysis sessions — the incremental serving state.

A session is the server-side mirror of one editor buffer: the most
recent live summary (its resolved program and solved masks) and, for a
laned session, its lane blocks; no payload of its own.  An ``update``
decides whether any set moved by comparing the rows the two summaries'
containers store (:func:`repro.core.persist.carry`), ``who_modifies``
reads the masks, and a reply or query that needs set names renders the
summary on the solver pool, once per summary (the summary keeps it,
as it keeps its container's head).  ``analyze`` with a
``session`` field creates or resets one; ``update`` re-submits edited
source and is routed through
:func:`repro.core.incremental.incremental_update` against the stored
summary, which is exactly the paper-lineage programming-environment
workflow (edit one procedure, keep the rest of the fixpoint).

The store is bounded: least-recently-used sessions are dropped when
``max_sessions`` is exceeded, and the eviction count is reported by
the ``stats`` verb so capacity pressure is visible.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.summary import SideEffectSummary


@dataclass
class Session:
    """One named incremental-analysis session."""

    name: str
    key: str  # Content hash of the current source + lane choice.
    summary: SideEffectSummary
    created: float = field(default_factory=time.time)
    analyzes: int = 0
    updates: int = 0
    #: Extra effect lanes this session was analyzed with (lane names,
    #: request order); () for plain MOD+USE sessions.
    lanes: tuple = ()
    #: The ``lanes`` reply block of a laned summary; None otherwise.
    lane_blocks: Optional[Dict] = None
    #: ``UpdateStats`` of the most recent ``update``, as a dict.
    last_update: Optional[Dict] = None

    def brief(self) -> Dict:
        return {
            "name": self.name,
            "key": self.key,
            "lanes": list(self.lanes),
            "num_procs": self.summary.resolved.num_procs,
            "analyzes": self.analyzes,
            "updates": self.updates,
            "last_update": self.last_update,
        }


class SessionStore:
    """Bounded, LRU-evicted mapping of session name → :class:`Session`."""

    def __init__(self, max_sessions: int):
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self.created = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def get(self, name: str) -> Optional[Session]:
        session = self._sessions.get(name)
        if session is not None:
            self._sessions.move_to_end(name)
        return session

    def put(self, session: Session) -> None:
        if session.name not in self._sessions:
            self.created += 1
        self._sessions[session.name] = session
        self._sessions.move_to_end(session.name)
        while len(self._sessions) > self.max_sessions:
            self._sessions.popitem(last=False)
            self.evictions += 1

    def names(self) -> List[str]:
        return list(self._sessions)

    def to_dict(self) -> Dict:
        return {
            "max_sessions": self.max_sessions,
            "active": len(self._sessions),
            "created": self.created,
            "evictions": self.evictions,
            "names": self.names(),
        }
