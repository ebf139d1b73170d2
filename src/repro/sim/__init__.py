"""A minimal discrete-event simulation engine.

Used by the detailed (cycle-approximate) mode of the Centaur EB-Streamer to
model gather requests in flight over the chiplet link, and by the serving
stack (replicas, clusters, autoscalers, shard groups) for fleet-scale
event-driven runs.  The hot path is tuned for million-event simulations:
``__slots__`` events recycled through a free list, one C-heap event queue
and an opt-in per-label profile (``Simulator(profile=True)``).
"""

from repro.sim.engine import Event, EventQueue, Simulator
from repro.sim.profile import SimProfile
from repro.sim.resources import BandwidthResource, TokenPool

__all__ = [
    "Event",
    "EventQueue",
    "SimProfile",
    "Simulator",
    "BandwidthResource",
    "TokenPool",
]
