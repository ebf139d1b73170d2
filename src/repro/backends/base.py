"""The :class:`Backend` protocol and capability flags.

A *backend* is anything that can price one inference batch on one device:
the CPU-only baseline, the CPU-GPU design point, Centaur, and any future
device variant.  The protocol is the contract between the device models and
every layer above them (experiments, figures, serving clusters, the CLI):
code written against it never needs to know which concrete runner class is
behind a registry name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.config.models import DLRMConfig
from repro.results import InferenceResult


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do beyond pricing a batch.

    Attributes:
        uses_accelerator: An attached device (GPU or FPGA) executes part of
            the model.
        offloads_embeddings: Embedding gathers run outside the CPU cores
            (Centaur's EB-Streamer), not just the dense layers.
        provision_warmup_s: Realistic commission-to-traffic delay for one
            replica of this device — model load for CPUs, bitstream /
            partial-reconfiguration time for FPGAs.  Used as the default
            ``warmup_s`` of autoscaled fleets built through the registry.
    """

    uses_accelerator: bool = False
    offloads_embeddings: bool = False
    provision_warmup_s: float = 0.0


@runtime_checkable
class Backend(Protocol):
    """One device design point, addressable by its registry name.

    Implementations must be deterministic: two calls of :meth:`run` with the
    same ``(model, batch_size)`` must return equal results, which is what
    lets :class:`repro.experiment.ResultCache` memoize design points.
    """

    @property
    def name(self) -> str:
        """Registry key of this backend (e.g. ``"cpu"``, ``"centaur"``)."""
        ...

    @property
    def design_point(self) -> str:
        """Paper-facing label (e.g. ``"CPU-only"``, ``"Centaur"``)."""
        ...

    @property
    def capabilities(self) -> BackendCapabilities:
        """Feature flags describing what this backend reports."""
        ...

    def run(self, model: DLRMConfig, batch_size: int) -> InferenceResult:
        """Price one inference batch end to end."""
        ...
