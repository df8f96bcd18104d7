"""Streaming reverse skyline over a sliding window.

The paper's related work points to reverse-skyline maintenance on data
streams (Zhu, Li & Chen, CSO 2009) as the streaming counterpart of its
problem; this module provides that capability for the non-metric setting.

A :class:`StreamingReverseSkyline` maintains, for a fixed query ``Q`` and
a sliding window of objects, the current reverse skyline under inserts
and expiries. It is a thin window over a one-query
:class:`~repro.streaming.monitor.ReverseSkylineMonitor`: the monitor
keeps the per-object pruner counts

``count[x] = |{ y in window, y != x : y ≻_x Q }|``

(``x`` is in the result iff ``count[x] == 0``) with one AL-Tree
traversal per update, and every insert or expiry is one monitor batch —
an insert at capacity expires the oldest object in the same batch,
deletes first.
"""

from __future__ import annotations

from collections import deque

from repro.data.schema import Schema
from repro.dissim.space import DissimilaritySpace
from repro.errors import AlgorithmError, SchemaError
from repro.streaming.monitor import ReverseSkylineMonitor

__all__ = ["StreamingReverseSkyline"]

#: The monitor's id for the window's one standing query.
_QID = "window"


class StreamingReverseSkyline:
    """Incrementally maintained ``RS(Q)`` over a sliding window.

    Parameters
    ----------
    schema, space:
        The object schema and its per-attribute dissimilarities
        (categorical attributes only — the tree traversals need finite
        lookup tables).
    query:
        The fixed query object ``Q``.
    capacity:
        Optional window bound; inserting beyond it expires the oldest
        object automatically (count-based sliding window).
    """

    def __init__(
        self,
        schema: Schema,
        space: DissimilaritySpace,
        query: tuple,
        *,
        capacity: int | None = None,
    ) -> None:
        if not space.is_fully_categorical():
            raise AlgorithmError(
                "StreamingReverseSkyline requires categorical attributes"
            )
        if space.num_attributes != schema.num_attributes:
            raise SchemaError("schema and dissimilarity space arity mismatch")
        if capacity is not None and capacity < 1:
            raise AlgorithmError(f"capacity must be >= 1, got {capacity}")
        self.schema = schema
        self.space = space
        self.query = tuple(query)
        self.capacity = capacity
        self._monitor = ReverseSkylineMonitor(schema, space)
        self._monitor.register(_QID, self.query)
        self._window: deque[int] = deque()

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._window)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._monitor

    def result(self) -> list[int]:
        """Current reverse-skyline member ids, ascending."""
        return list(self._monitor.members(_QID))

    def pruner_count(self, object_id: int) -> int:
        if object_id not in self._monitor:
            raise AlgorithmError(f"object {object_id} is not in the window")
        return self._monitor.pruner_count(_QID, object_id)

    # -- updates ----------------------------------------------------------------
    def insert(self, values: tuple) -> int:
        """Add one object to the window; returns its id. Expires the
        oldest object first when at capacity."""
        expired = ()
        if self.capacity is not None and len(self._window) >= self.capacity:
            expired = (self._window[0],)
        (oid,) = self._monitor.apply(inserts=(values,), deletes=expired).inserted
        if expired:
            self._window.popleft()
        self._window.append(oid)
        return oid

    def expire_oldest(self) -> int:
        """Remove the oldest window object; returns its id."""
        if not self._window:
            raise AlgorithmError("cannot expire from an empty window")
        oid = self._window.popleft()
        self._monitor.apply(deletes=(oid,))
        return oid

    def extend(self, stream) -> list[int]:
        """Insert many objects; returns their ids."""
        return [self.insert(values) for values in stream]

    # -- validation ----------------------------------------------------------
    def recompute_naive(self) -> list[int]:
        """Reference recomputation of the current result from scratch
        (quadratic; used by tests and available for auditing)."""
        return list(self._monitor.recompute_naive(_QID))
