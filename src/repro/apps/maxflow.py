"""Preflow-push (push–relabel) maximum flow as a work-set application.

A staple of the Galois benchmark suites: the work-set holds *active*
nodes (positive excess); processing one discharges it — pushing flow
along admissible residual arcs and relabelling when stuck.  Two active
nodes conflict when they are residual neighbours (they race on the arc
flow and on each other's excess), giving a CC graph that *follows the
flow frontier* across the network — a qualitatively different dynamic
conflict pattern from refinement's cavities or Borůvka's contractions.

Pure textbook Goldberg–Tarjan, FIFO-free (the unordered work-set supplies
the schedule):

* ``excess[v] > 0`` for ``v ∉ {s, t}`` ⇔ v has a pending task;
* discharge pushes ``min(excess, residual)`` along arcs with
  ``height[u] == height[v] + 1``;
* when no admissible arc remains, ``height[u] = 1 + min heights of
  residual neighbours``.

Correctness oracle: max-flow value equals scipy's
(:func:`repro.testing.oracles.reference_max_flow`) and flow conservation
holds exactly.
"""

from __future__ import annotations

from repro.apps.base import AppWorkload
from repro.errors import ApplicationError
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.task import Operator, Task
from repro.utils.rng import ensure_rng

__all__ = ["FlowNetwork", "random_flow_network", "PreflowPush"]


class FlowNetwork:
    """Directed capacitated graph (integer capacities)."""

    def __init__(self, num_nodes: int, source: int, sink: int):
        if num_nodes < 2:
            raise ApplicationError(f"need at least 2 nodes, got {num_nodes}")
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes):
            raise ApplicationError("source/sink outside node range")
        if source == sink:
            raise ApplicationError("source and sink must differ")
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        # capacity[u][v]; absent = 0.  Residual graph uses cap - flow + reverse flow.
        self.capacity: list[dict[int, int]] = [dict() for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        if u == v:
            raise ApplicationError(f"self-loop on {u}")
        if cap < 0:
            raise ApplicationError(f"negative capacity {cap}")
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ApplicationError(f"edge ({u}, {v}) outside node range")
        self.capacity[u][v] = self.capacity[u].get(v, 0) + cap
        self.capacity[v].setdefault(u, 0)  # ensure reverse arc exists in residual

    def arcs(self) -> list[tuple[int, int, int]]:
        return [
            (u, v, c)
            for u in range(self.num_nodes)
            for v, c in self.capacity[u].items()
            if c > 0
        ]


def random_flow_network(
    num_nodes: int, avg_out_degree: float = 4.0, max_cap: int = 20, seed=None
) -> FlowNetwork:
    """Layered-ish random DAG + chords with source 0 and sink n−1.

    A guaranteed s→t path is laid first so the max flow is positive.
    """
    if num_nodes < 2:
        raise ApplicationError(f"need at least 2 nodes, got {num_nodes}")
    rng = ensure_rng(seed)
    net = FlowNetwork(num_nodes, source=0, sink=num_nodes - 1)
    order = [0] + (rng.permutation(num_nodes - 2) + 1).tolist() + [num_nodes - 1]
    for a, b in zip(order, order[1:]):
        net.add_edge(int(a), int(b), int(rng.integers(1, max_cap + 1)))
    extra = int(avg_out_degree * num_nodes) - (num_nodes - 1)
    for _ in range(max(extra, 0)):
        u = int(rng.integers(0, num_nodes))
        v = int(rng.integers(0, num_nodes))
        if u != v:
            net.add_edge(u, v, int(rng.integers(1, max_cap + 1)))
    return net


class PreflowPush(AppWorkload, Operator):
    """Goldberg–Tarjan discharge as engine tasks (payload = node id)."""

    def __init__(self, network: FlowNetwork, *, workset=None):
        self.net = network
        n = network.num_nodes
        self.height = [0] * n
        self.excess = [0] * n
        self.flow: list[dict[int, int]] = [dict() for _ in range(n)]
        self.height[network.source] = n
        self.policy = ItemLockPolicy()
        self._init_workset(workset)
        self.discharges = 0
        self.relabels = 0
        self._enqueued: set[int] = set()
        self._frozen: set[int] = set()  # defensive: nodes with stuck excess
        # saturate source arcs
        for v, cap in network.capacity[network.source].items():
            if cap > 0:
                self._push(network.source, v, cap)
        for v in list(self._active()):
            self._enqueue(v)

    # ------------------------------------------------------------------
    def _push(self, u: int, v: int, amount: int) -> None:
        self.flow[u][v] = self.flow[u].get(v, 0) + amount
        self.flow[v][u] = self.flow[v].get(u, 0) - amount
        self.excess[u] -= amount
        self.excess[v] += amount

    def _active(self):
        for v in range(self.net.num_nodes):
            if v not in (self.net.source, self.net.sink) and self.excess[v] > 0:
                yield v

    def _is_active(self, v: int) -> bool:
        return (
            v not in (self.net.source, self.net.sink)
            and v not in self._frozen
            and self.excess[v] > 0
        )

    def _enqueue(self, v: int) -> None:
        if v not in self._enqueued and self._is_active(v):
            self._enqueued.add(v)
            self._seed_task(Task(payload=v))

    # ------------------------------------------------------------------
    # Operator interface
    # ------------------------------------------------------------------
    # Both run once per launched / committed task — tens of thousands of
    # times at batches of ~5 — so they read the tables through locals and
    # spell _is_active, _push and the residual ``cap - flow`` out in place.
    def neighborhood(self, task: Task):
        u = task.payload
        net = self.net
        if self.excess[u] <= 0 or u == net.source or u == net.sink or u in self._frozen:
            return ()
        items = set(net.capacity[u])
        items.add(u)
        return items

    def apply(self, task: Task) -> list[Task]:
        u = task.payload
        enqueued = self._enqueued
        enqueued.discard(u)
        net = self.net
        source, sink = net.source, net.sink
        excess = self.excess
        frozen = self._frozen
        remaining = excess[u]
        if remaining <= 0 or u == source or u == sink or u in frozen:
            return []
        self.discharges += 1
        height = self.height
        flow = self.flow
        cap_u = net.capacity[u]
        flow_u = flow[u]
        touched: set[int] = set()
        for _ in range(4 * len(cap_u) + 8):  # remaining > 0 at every entry
            pushed = False
            h_u = height[u]
            # lowest residual neighbour: the relabel target if this scan
            # finds nothing to push (no flow changes during such a scan,
            # so the minimum is taken over exactly the residual arcs)
            lowest = None
            for v, cap in cap_u.items():
                res = cap - flow_u.get(v, 0)
                if res <= 0:
                    continue
                h_v = height[v]
                if h_u == h_v + 1:
                    amount = remaining if remaining < res else res
                    flow_u[v] = flow_u.get(v, 0) + amount
                    flow_v = flow[v]
                    flow_v[u] = flow_v.get(u, 0) - amount
                    remaining -= amount
                    excess[v] += amount
                    touched.add(v)
                    pushed = True
                    if remaining == 0:
                        break
                elif lowest is None or h_v < lowest:
                    lowest = h_v
            if remaining == 0:
                break
            if not pushed:
                # relabel: one above the lowest reachable residual neighbour
                if lowest is None:
                    frozen.add(u)  # cannot happen for consistent flows
                    break
                height[u] = 1 + lowest
                self.relabels += 1
                if height[u] > 2 * net.num_nodes:
                    frozen.add(u)  # defensive guard; valid runs stay < 2n
                    break
        excess[u] = remaining
        out: list[Task] = []
        for v in touched:
            if excess[v] > 0 and v != source and v != sink and not (
                v in frozen or v in enqueued
            ):
                enqueued.add(v)
                out.append(Task(payload=v))
        if remaining > 0 and u not in frozen and u not in enqueued:
            enqueued.add(u)
            out.append(Task(payload=u))
        return out

    # ------------------------------------------------------------------
    @property
    def flow_value(self) -> int:
        """Net flow into the sink."""
        return int(
            sum(
                self.flow[u].get(self.net.sink, 0)
                for u in self.net.capacity[self.net.sink]
            )
        )

    def check_conservation(self) -> bool:
        """Flow conservation and capacity constraints everywhere."""
        for u in range(self.net.num_nodes):
            for v, f in self.flow[u].items():
                if f > self.net.capacity[u].get(v, 0):
                    return False
                if f != -self.flow[v].get(u, 0):
                    return False
        for v in range(self.net.num_nodes):
            if v in (self.net.source, self.net.sink):
                continue
            inflow = sum(self.flow[u].get(v, 0) for u in range(self.net.num_nodes) if self.flow[u].get(v, 0) > 0)
            outflow = sum(f for f in self.flow[v].values() if f > 0)
            if inflow - outflow != self.excess[v]:
                return False
        return True
