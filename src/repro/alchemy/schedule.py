"""Model composition: the ``>`` (sequential) and ``|`` (parallel) operators.

Schedules form a DAG of models "of any depth as long as the resources
permit" (§3.1.1).  A :class:`ScheduleNode` is either a leaf (one model) or
a sequential/parallel combinator over children; :meth:`to_dag` flattens it
into a networkx digraph for analysis.

Resource accounting note (paper Table 3): chaining *copies of the same
model* re-uses the already-placed pipeline — "additional logic for
managing models is negligible and can be fitted into existing CUs" — so
schedule-level resources are the sum over *distinct* models, invariant to
the chaining strategy.
"""

from __future__ import annotations

from repro.alchemy.model import Model
from repro.errors import SpecificationError


class ScheduleNode:
    """A node of the composition tree."""

    SEQ = "seq"
    PAR = "par"
    LEAF = "leaf"

    def __init__(self, kind: str, model: "Model | None" = None, children: "list | None" = None):
        if kind not in (self.SEQ, self.PAR, self.LEAF):
            raise SpecificationError(f"unknown schedule node kind {kind!r}")
        self.kind = kind
        self.model = model
        self.children: list = children or []
        if kind == self.LEAF:
            if model is None or self.children:
                raise SpecificationError("leaf nodes carry exactly one model")
        else:
            if model is not None or len(self.children) < 2:
                raise SpecificationError(f"{kind} nodes need >= 2 children")

    # -- constructors --------------------------------------------------------
    @classmethod
    def leaf(cls, model: Model) -> "ScheduleNode":
        if not isinstance(model, Model):
            raise SpecificationError(f"expected a Model, got {type(model).__name__}")
        return cls(cls.LEAF, model=model)

    @classmethod
    def wrap(cls, value) -> "ScheduleNode":
        if isinstance(value, ScheduleNode):
            return value
        if isinstance(value, Model):
            return cls.leaf(value)
        raise SpecificationError(
            f"cannot compose {type(value).__name__}; expected Model or ScheduleNode"
        )

    @classmethod
    def sequential(cls, left: "ScheduleNode", right: "ScheduleNode") -> "ScheduleNode":
        children = []
        for node in (left, right):
            children.extend(node.children if node.kind == cls.SEQ else [node])
        return cls(cls.SEQ, children=children)

    @classmethod
    def parallel(cls, left: "ScheduleNode", right: "ScheduleNode") -> "ScheduleNode":
        children = []
        for node in (left, right):
            children.extend(node.children if node.kind == cls.PAR else [node])
        return cls(cls.PAR, children=children)

    # -- composition operators ------------------------------------------------
    # See Model's note: chained ``>`` is a Python comparison chain; prefer
    # ``>>`` or parenthesized composition for sequences of three or more.
    def __gt__(self, other) -> "ScheduleNode":
        return ScheduleNode.sequential(self, ScheduleNode.wrap(other))

    def __rshift__(self, other) -> "ScheduleNode":
        """Chaining-safe sequential composition (``a >> b >> c``)."""
        return ScheduleNode.sequential(self, ScheduleNode.wrap(other))

    def __or__(self, other) -> "ScheduleNode":
        return ScheduleNode.parallel(self, ScheduleNode.wrap(other))

    # -- queries ---------------------------------------------------------------
    def models(self) -> list:
        """All model instances in composition order (with repeats)."""
        if self.kind == self.LEAF:
            return [self.model]
        out: list = []
        for child in self.children:
            out.extend(child.models())
        return out

    def distinct_models(self) -> list:
        """Unique model instances (shared pipelines are placed once)."""
        seen: set = set()
        out: list = []
        for model in self.models():
            if id(model) not in seen:
                seen.add(id(model))
                out.append(model)
        return out

    def effective_throughput(self, per_model: dict) -> "float | None":
        """Throughput of the composed pipeline given per-model rates.

        Sequential stages bottleneck each other (min); parallel branches
        each see every packet, so the slowest branch also bounds the
        composite — "if one model operates at 1 GPkt/s and feeds into
        another at 0.5 GPkt/s, the first must also run at 0.5" (§3.2.1).
        """
        if self.kind == self.LEAF:
            return per_model.get(self.model.name)
        rates = [c.effective_throughput(per_model) for c in self.children]
        rates = [r for r in rates if r is not None]
        return min(rates) if rates else None

    def describe(self) -> str:
        """The paper's notation, e.g. ``DNN > (DNN | DNN) > DNN``."""
        if self.kind == self.LEAF:
            return self.model.name
        sep = " > " if self.kind == self.SEQ else " | "
        parts = []
        for child in self.children:
            text = child.describe()
            if child.kind != self.LEAF:
                text = f"({text})"
            parts.append(text)
        return sep.join(parts)

    def to_dag(self):
        """Flatten into a model-level DAG (edges = data dependencies).

        Returns a :class:`networkx.DiGraph`.
        """
        import networkx as nx  # only DAG consumers pay its import time

        graph = nx.DiGraph()
        counter = [0]

        def add(node: "ScheduleNode") -> tuple[list, list]:
            """Returns (entry_ids, exit_ids) of the subgraph."""
            if node.kind == self.LEAF:
                nid = f"{node.model.name}#{counter[0]}"
                counter[0] += 1
                graph.add_node(nid, model=node.model)
                return [nid], [nid]
            if node.kind == self.PAR:
                entries: list = []
                exits: list = []
                for child in node.children:
                    e, x = add(child)
                    entries.extend(e)
                    exits.extend(x)
                return entries, exits
            # sequential
            first_entries, prev_exits = add(node.children[0])
            for child in node.children[1:]:
                entries, exits = add(child)
                for u in prev_exits:
                    for v in entries:
                        graph.add_edge(u, v)
                prev_exits = exits
            return first_entries, prev_exits

        add(self)
        if not nx.is_directed_acyclic_graph(graph):  # pragma: no cover - by construction
            raise SpecificationError("schedule produced a cyclic graph")
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScheduleNode({self.describe()})"
