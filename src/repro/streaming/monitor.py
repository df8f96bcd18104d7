"""Continuous reverse-skyline monitoring for standing queries.

:class:`~repro.streaming.window.StreamingReverseSkyline` maintains one
query over a sliding window. This module scales the other axis: many
**standing queries** over one mutating object set, with each update
batch reported as per-query **membership deltas** — which objects
*entered* and which *left* each query's reverse skyline — instead of
recomputed result sets. Subscribers (alerting, materialised influence
scores, the serve layer) consume the events; nobody re-reads full
results per batch.

Two ideas keep a batch cheap:

- **Shared state.** All queries share one AL-Tree over the live
  objects plus per-query pruner counts ``count_q[x] = |{y != x :
  y ≻_x q}|`` (``x ∈ RS(q)`` iff the count is zero). An update touches
  the tree once; per query it costs at most two traversals.
- **Influence filtering.** Before traversing for a query, the update
  record is tested against the query's *influence region* — computed
  per attribute from the dissimilarity tables, over the whole value
  domain. If no conceivable witness ``x`` satisfies ``b ≻_x q`` on
  every attribute, record ``b`` cannot change any pruner count under
  ``q`` and the enumerating traversal is skipped; if no conceivable
  object can sit strictly closer to ``b`` than ``q`` does on any
  attribute, nothing can prune ``b`` and its own count is zero without
  the exhaustive traversal. The tests are sound (a skip is never
  wrong — the domain bounds all live objects) and cached per
  ``(attribute, value, query value)`` triple, so steady-state filtering
  is a few dict lookups per (update, query) pair.

Ids are assigned monotonically from the seed size, exactly like
:class:`repro.maint.MaintStore` stable ids — seed a monitor with
:meth:`ReverseSkylineMonitor.from_dataset` on the store's base and feed
it the same batches, and the event ids match the engine's record ids.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.altree.tree import ALTree
from repro.data.schema import Schema
from repro.dissim.space import DissimilaritySpace
from repro.errors import AlgorithmError, SchemaError
from repro.sorting.keys import ascending_cardinality_order

__all__ = ["MembershipDelta", "BatchResult", "ReverseSkylineMonitor"]


@dataclass(frozen=True)
class MembershipDelta:
    """RS membership change of one standing query for one batch."""

    query_id: str
    #: Object ids that joined RS(q) this batch, ascending.
    entered: tuple[int, ...]
    #: Object ids that dropped out of RS(q) this batch, ascending.
    left: tuple[int, ...]
    #: The monitor epoch the batch advanced to.
    epoch: int


@dataclass(frozen=True)
class BatchResult:
    """What one :meth:`ReverseSkylineMonitor.apply` batch did."""

    epoch: int
    #: Ids assigned to the batch's inserts, in input order.
    inserted: tuple[int, ...]
    #: One delta per standing query whose membership changed.
    deltas: tuple[MembershipDelta, ...]
    #: (update, query) pairs that ran a pruning traversal...
    evaluated: int
    #: ...and pairs the influence filter proved unnecessary.
    filtered: int


class _Standing:
    __slots__ = ("query", "counts")

    def __init__(self, query: tuple) -> None:
        self.query = query
        self.counts: dict[int, int] = {}


class ReverseSkylineMonitor:
    """Membership deltas for many standing queries under update batches.

    Parameters
    ----------
    schema, space:
        Object schema and per-attribute dissimilarities (categorical
        only — the traversals and the influence filter need finite
        lookup tables).
    initial:
        Seed objects; they get ids ``0..n-1``.
    """

    def __init__(
        self,
        schema: Schema,
        space: DissimilaritySpace,
        *,
        initial: Iterable[Sequence] = (),
    ) -> None:
        if not space.is_fully_categorical():
            raise AlgorithmError(
                "ReverseSkylineMonitor requires categorical attributes"
            )
        if space.num_attributes != schema.num_attributes:
            raise SchemaError("schema and dissimilarity space arity mismatch")
        self.schema = schema
        self.space = space
        self._tables = space.tables()
        self._order = ascending_cardinality_order(schema)
        self._tree = ALTree(self._order)
        self._values: dict[int, tuple] = {}
        self._next_id = 0
        self._queries: dict[str, _Standing] = {}
        self.epoch = 0
        #: Cumulative influence-filter outcomes, per (update, query) pair.
        self.evaluated = 0
        self.filtered = 0
        #: (attr, update value, query value) -> (noworse_exists, closer_exists)
        self._prune_cap: dict[tuple[int, int, int], tuple[bool, bool]] = {}
        #: (attr, update value, query value) -> strictly-closer value exists
        self._vuln_cap: dict[tuple[int, int, int], bool] = {}
        for values in initial:
            record = tuple(values)
            schema.validate_record(record)
            self._tree.insert(self._next_id, record)
            self._values[self._next_id] = record
            self._next_id += 1

    @classmethod
    def from_dataset(cls, dataset) -> "ReverseSkylineMonitor":
        """Monitor seeded with a dataset's records; object ids equal the
        dataset's record ids (and :class:`repro.maint.MaintStore` stable
        ids, when both consume the same update batches)."""
        return cls(dataset.schema, dataset.space, initial=dataset.records)

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._values

    def members(self, query_id: str) -> tuple[int, ...]:
        """Current RS members of one standing query, ascending."""
        st = self._standing(query_id)
        return tuple(sorted(o for o, c in st.counts.items() if c == 0))

    def pruner_count(self, query_id: str, object_id: int) -> int:
        """How many live objects prune ``object_id`` under one standing
        query (zero iff it is a member)."""
        try:
            return self._standing(query_id).counts[object_id]
        except KeyError:
            raise AlgorithmError(f"object {object_id} is not live") from None

    def queries(self) -> tuple[str, ...]:
        return tuple(sorted(self._queries))

    def stats(self) -> dict:
        return {
            "epoch": self.epoch,
            "objects": len(self._values),
            "standing_queries": len(self._queries),
            "evaluated": self.evaluated,
            "filtered": self.filtered,
        }

    def _standing(self, query_id: str) -> _Standing:
        try:
            return self._queries[query_id]
        except KeyError:
            raise AlgorithmError(
                f"no standing query registered as {query_id!r}"
            ) from None

    # -- standing-query lifecycle --------------------------------------------
    def register(self, query_id: str, query: Sequence) -> tuple[int, ...]:
        """Register a standing query; returns its current RS members.

        Registration pays one exhaustive traversal per live object to
        seed the pruner counts; every later batch is incremental.
        """
        if query_id in self._queries:
            raise AlgorithmError(f"standing query {query_id!r} already registered")
        q = tuple(query)
        self.schema.validate_record(q)
        st = _Standing(q)
        for oid, values in self._values.items():
            if self._can_be_pruned(values, q):
                st.counts[oid] = self._count_pruners(oid, values, q)
            else:
                st.counts[oid] = 0
        self._queries[query_id] = st
        return self.members(query_id)

    def unregister(self, query_id: str) -> None:
        self._standing(query_id)
        del self._queries[query_id]

    # -- influence filter ----------------------------------------------------
    def _prune_caps(self, i: int, bval: int, qval: int) -> tuple[bool, bool]:
        """Over the whole domain of attribute ``i``: does any witness
        value sit no farther / strictly closer to ``bval`` than to
        ``qval``?"""
        key = (i, bval, qval)
        cached = self._prune_cap.get(key)
        if cached is None:
            table = self._tables[i]
            noworse = closer = False
            for row in table:
                if row[bval] <= row[qval]:
                    noworse = True
                    if row[bval] < row[qval]:
                        closer = True
                        break
            cached = (noworse, closer)
            self._prune_cap[key] = cached
        return cached

    def _can_influence(self, values: tuple, q: tuple) -> bool:
        """Can ``values`` prune *any* conceivable witness under ``q``?

        ``b ≻_x q`` needs ``d(x_i, b_i) <= d(x_i, q_i)`` on every
        attribute with one strict — and since witness attributes range
        independently over the product domain, a per-attribute check is
        exact over the domain (conservative over the live set). False
        means no pruner count can change, so the traversal is skipped.
        """
        closer_any = False
        for i, (bval, qval) in enumerate(zip(values, q)):
            noworse, closer = self._prune_caps(i, bval, qval)
            if not noworse:
                return False
            closer_any = closer_any or closer
        return closer_any

    def _can_be_pruned(self, values: tuple, q: tuple) -> bool:
        """Can *anything* prune ``values`` under ``q``? ``y ≻_b q``
        needs some attribute where ``y`` can sit strictly closer to
        ``b`` than ``q`` does (the no-farther half is always satisfiable
        by ``y_i = q_i``). False means the object's pruner count is zero
        by construction — no exhaustive traversal needed."""
        for i, (bval, qval) in enumerate(zip(values, q)):
            key = (i, bval, qval)
            cached = self._vuln_cap.get(key)
            if cached is None:
                row = self._tables[i][bval]
                dq = row[qval]
                cached = any(d < dq for d in row)
                self._vuln_cap[key] = cached
            if cached:
                return True
        return False

    # -- traversals ----------------------------------------------------------
    def _pruned_by(self, e_id: int, e: tuple, q: tuple) -> list[int]:
        """Live object ids that ``e`` prunes under ``q`` (``e ≻_x q``),
        excluding ``e`` itself — an enumerating Algorithm 5."""
        order = self._order
        tables = self._tables
        pruned: list[int] = []
        stack = [(self._tree.root, False)]
        while stack:
            node, found_closer = stack.pop()
            if node.entries:
                if found_closer:
                    pruned.extend(rid for rid, _ in node.entries if rid != e_id)
                continue
            for child in node.children.values():
                i = order[child.position]
                row = tables[i][child.key]
                d_pe = row[e[i]]
                d_pq = row[q[i]]
                if d_pe <= d_pq:
                    stack.append((child, found_closer or d_pe < d_pq))
        return pruned

    def _count_pruners(self, c_id: int, c: tuple, q: tuple) -> int:
        """How many live objects dominate ``q`` with respect to ``c``,
        excluding ``c`` itself — an exhaustive Algorithm 4."""
        order = self._order
        tables = self._tables
        qd = [tables[i][c[i]][q[i]] for i in range(len(c))]
        total = 0
        stack = [(self._tree.root, False)]
        while stack:
            node, found_closer = stack.pop()
            if node.entries:
                if found_closer:
                    total += sum(1 for rid, _ in node.entries if rid != c_id)
                continue
            for child in node.children.values():
                i = order[child.position]
                d_cp = tables[i][c[i]][child.key]
                if d_cp <= qd[i]:
                    stack.append((child, found_closer or d_cp < qd[i]))
        return total

    # -- update batches ------------------------------------------------------
    def apply(
        self,
        inserts: Iterable[Sequence] = (),
        deletes: Iterable[int] = (),
    ) -> BatchResult:
        """Absorb one batch (deletes first, then inserts) and report the
        membership deltas of every standing query it changed.

        A bad batch (unknown/duplicate delete id, invalid record) raises
        :class:`~repro.errors.AlgorithmError` before any state mutates.
        """
        ins = [tuple(v) for v in inserts]
        dels = [int(d) for d in deletes]
        for values in ins:
            self.schema.validate_record(values)
        for oid in dels:
            if oid not in self._values:
                raise AlgorithmError(f"delete of unknown object id {oid}")
        if len(set(dels)) != len(dels):
            raise AlgorithmError("duplicate object id in delete batch")
        self.epoch += 1
        # Per query, the objects whose count touched zero this batch —
        # the only ones whose membership can change — with their count
        # when it first did (zero iff they were members before the
        # batch: a count off zero until then never was zero). None
        # marks an object born this batch (it cannot "leave" a result
        # it was never in).
        touched: dict[str, dict[int, int | None]] = {
            qid: {} for qid in self._queries
        }
        evaluated = filtered = 0

        for oid in dels:
            values = self._values[oid]
            for qid, st in self._queries.items():
                t = touched[qid]
                if self._can_influence(values, st.query):
                    evaluated += 1
                    counts = st.counts
                    for x in self._pruned_by(oid, values, st.query):
                        c = counts[x]
                        if c == 1 and x not in t:
                            t[x] = 1
                        counts[x] = c - 1
                else:
                    filtered += 1
                if oid not in t:
                    t[oid] = st.counts[oid]
                del st.counts[oid]
            removed = self._tree.remove_object(oid, values)
            assert removed, "monitor tree/values desynchronised"
            del self._values[oid]

        inserted: list[int] = []
        for values in ins:
            oid = self._next_id
            self._next_id += 1
            self._tree.insert(oid, values)
            self._values[oid] = values
            inserted.append(oid)
            for qid, st in self._queries.items():
                t = touched[qid]
                if self._can_influence(values, st.query):
                    evaluated += 1
                    counts = st.counts
                    for x in self._pruned_by(oid, values, st.query):
                        c = counts[x]
                        if c == 0 and x not in t:
                            t[x] = 0
                        counts[x] = c + 1
                else:
                    filtered += 1
                t.setdefault(oid, None)
                if self._can_be_pruned(values, st.query):
                    st.counts[oid] = self._count_pruners(oid, values, st.query)
                else:
                    st.counts[oid] = 0

        self.evaluated += evaluated
        self.filtered += filtered
        deltas: list[MembershipDelta] = []
        for qid, st in self._queries.items():
            entered: list[int] = []
            left: list[int] = []
            for oid, old in touched[qid].items():
                was = old == 0
                now = st.counts.get(oid) == 0  # deleted -> None -> False
                if now and not was:
                    entered.append(oid)
                elif was and not now:
                    left.append(oid)
            if entered or left:
                deltas.append(
                    MembershipDelta(
                        query_id=qid,
                        entered=tuple(sorted(entered)),
                        left=tuple(sorted(left)),
                        epoch=self.epoch,
                    )
                )
        return BatchResult(
            epoch=self.epoch,
            inserted=tuple(inserted),
            deltas=tuple(deltas),
            evaluated=evaluated,
            filtered=filtered,
        )

    # -- validation ----------------------------------------------------------
    def recompute_naive(self, query_id: str) -> tuple[int, ...]:
        """Reference recomputation of one standing query's members from
        scratch (quadratic; tests and audits only)."""
        from repro.skyline.domination import dominates

        q = self._standing(query_id).query
        items = list(self._values.items())
        out = [
            x_id
            for x_id, x in items
            if not any(
                dominates(self.space, y, q, x) for y_id, y in items if y_id != x_id
            )
        ]
        return tuple(sorted(out))
