"""Parallel discrete-event simulation of a queueing network (ordered app).

The canonical *ordered* irregular algorithm the paper's §5 points to:
events carry timestamps and must commit chronologically.  The model is a
closed queueing network:

* ``num_stations`` stations on a random strongly-connected topology, each
  with its own exponential service rate;
* ``num_jobs`` jobs circulate (closed network); processing the departure
  of a job at station *s* routes it to a neighbour and schedules the next
  departure at ``t + Exp(rate)``;
* two events conflict iff they touch the same station (shared queue
  state);
* commits must be chronological — the ordered engine's barrier/horizon
  rules roll back speculation that ran ahead of (possibly re-created)
  earlier work.

Each job's event chain draws its randomness from a key ``(seed, job,
hop)``, so the set of events is a pure function of the seed — independent
of speculation and rollback order.  That gives a sharp oracle: the
optimistic committed history must equal the strictly sequential execution
(:func:`sequential_history`) event for event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import AppWorkload
from repro.errors import ApplicationError
from repro.runtime.conflict import ItemLockPolicy
from repro.runtime.policies import PriorityWorkset
from repro.runtime.task import Operator, Task
from repro.utils.rng import ensure_rng

__all__ = ["QueueingNetwork", "DiscreteEventSimulation", "sequential_history"]


@dataclass(frozen=True)
class Event:
    """Departure of *job* (on its *hop*-th move) from *station* at *time*."""

    time: float
    station: int
    job: int
    hop: int


class QueueingNetwork:
    """Static topology + per-station exponential service rates."""

    def __init__(self, num_stations: int, avg_degree: float = 3.0, seed=None):
        if num_stations < 2:
            raise ApplicationError(f"need at least 2 stations, got {num_stations}")
        rng = ensure_rng(seed)
        self.num_stations = num_stations
        self.rates = 0.5 + rng.random(num_stations)  # service rates in [0.5, 1.5)
        # ring + random chords: strongly connected, irregular degrees
        self.neighbors: list[list[int]] = [
            [(s + 1) % num_stations] for s in range(num_stations)
        ]
        extra = int(max(avg_degree - 1.0, 0.0) * num_stations)
        for _ in range(extra):
            u = int(rng.integers(0, num_stations))
            v = int(rng.integers(0, num_stations))
            if u != v and v not in self.neighbors[u]:
                self.neighbors[u].append(v)

    def route(self, station: int, draw: float) -> int:
        """Deterministic routing given a uniform draw in [0, 1)."""
        options = self.neighbors[station]
        return options[int(draw * len(options)) % len(options)]


def _draws(seed: int, job: int, hop: int) -> tuple[float, float]:
    """(service_draw, routing_draw) for one hop of one job's chain.

    Keyed by identity, not by execution order, so speculation and rollback
    cannot perturb the simulated system.
    """
    rng = np.random.default_rng((seed, job, hop))
    return float(rng.random()), float(rng.random())


class DiscreteEventSimulation(AppWorkload, Operator):
    """The PDES workload as an ordered-engine operator.

    Task payloads are :class:`Event` instances; priorities are event
    times.  The run drains once every job's chain passes ``end_time``.
    """

    #: events must commit chronologically — unordered commit orders are
    #: rejected by the registry/config layer for this app.
    requires_order = True

    def __init__(
        self,
        network: QueueingNetwork,
        num_jobs: int,
        end_time: float,
        seed: int = 0,
        *,
        workset=None,
    ):
        if num_jobs < 1:
            raise ApplicationError(f"need at least one job, got {num_jobs}")
        if end_time <= 0:
            raise ApplicationError(f"end time must be positive, got {end_time}")
        self.network = network
        self.end_time = float(end_time)
        self.seed = int(seed)
        self.history: list[Event] = []  # committed events, in commit order
        self.policy = ItemLockPolicy()
        self._init_workset(workset)
        init_rng = ensure_rng(seed)
        for job in range(num_jobs):
            station = int(init_rng.integers(0, network.num_stations))
            ev = self._make_event(0.0, station, job, hop=0)
            if ev is not None:
                self._seed_task(Task(payload=ev))

    # ------------------------------------------------------------------
    def _make_event(self, now: float, station: int, job: int, hop: int) -> "Event | None":
        service_draw, _ = _draws(self.seed, job, hop)
        dt = -np.log(1.0 - service_draw) / self.network.rates[station]
        t = now + float(dt)
        if t > self.end_time:
            return None
        return Event(time=t, station=station, job=job, hop=hop)

    def _successor(self, ev: Event) -> "Event | None":
        _, routing_draw = _draws(self.seed, ev.job, ev.hop)
        target = self.network.route(ev.station, routing_draw)
        return self._make_event(ev.time, target, ev.job, ev.hop + 1)

    # ------------------------------------------------------------------
    # Operator interface (for the ordered commit order)
    # ------------------------------------------------------------------
    def neighborhood(self, task: Task):
        ev: Event = task.payload
        _, routing_draw = _draws(self.seed, ev.job, ev.hop)
        target = self.network.route(ev.station, routing_draw)
        return {ev.station, target}

    def apply(self, task: Task) -> list[Task]:
        ev: Event = task.payload
        self.history.append(ev)
        nxt = self._successor(ev)
        return [Task(payload=nxt)] if nxt is not None else []

    # ------------------------------------------------------------------
    def _default_workset(self):
        return PriorityWorkset()

    def priority_of(self, task: Task) -> float:
        return task.payload.time

    def check_history_ordered(self) -> bool:
        """Committed history must be chronologically sorted."""
        times = [ev.time for ev in self.history]
        return all(b >= a for a, b in zip(times, times[1:]))


def sequential_history(
    network: QueueingNetwork, num_jobs: int, end_time: float, seed: int = 0
) -> list[Event]:
    """Oracle: the identical system executed strictly one event at a time."""
    sim = DiscreteEventSimulation(network, num_jobs, end_time, seed=seed)
    while sim.workset:
        _, task = sim.workset.take_earliest(1)[0]
        for new_task in sim.apply(task):
            sim.workset.add(new_task, new_task.payload.time)
    return sim.history
