"""A minimal discrete-event simulation engine.

Used by the detailed (cycle-approximate) mode of the Centaur EB-Streamer to
model gather requests in flight over the chiplet link, and by the serving
stack (replicas, clusters, autoscalers, shard groups) for fleet-scale
event-driven runs.  The hot path is tuned for million-event simulations:
``__slots__`` events recycled through a free list, one C-heap event queue
and an opt-in per-label profile (``Simulator(profile=True)``).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".engine": ("Event", "EventQueue", "Simulator"),
        ".profile": ("SimProfile",),
        ".resources": ("BandwidthResource", "TokenPool"),
    },
)
