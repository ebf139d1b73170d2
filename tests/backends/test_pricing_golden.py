"""Full-precision pricing oracle for the three built-in backends.

The sweep's stdout rounds every value, so a last-bit drift in a device
model would pass the printed-output checks.  This test hashes the exact
``repr`` of every field of every :class:`~repro.results.InferenceResult`
over the paper grid, so any change to a priced float (an operation
reordered, a sum replaced by a product) changes the digest.

The expected digest was computed from the device models before their
batch-invariant work was hoisted out of the per-point path; a deliberate
calibration change must update it in the same commit.
"""

import dataclasses
import hashlib

from repro.backends import get_backend
from repro.config import HARPV2_SYSTEM, PAPER_MODELS

BACKENDS = ("cpu", "cpu-gpu", "centaur")
BATCHES = (1, 2, 7, 64, 128, 333, 512)
EXPECTED = "9a435245d0ceb164d5971f1ab7eb0d56efd6f7b0f2b9bdb60b8c9e81949f1208"


def pricing_digest(models=PAPER_MODELS) -> str:
    digest = hashlib.sha256()
    for name in BACKENDS:
        for model in models:
            for batch in BATCHES:
                result = get_backend(name, HARPV2_SYSTEM).run(model, batch)
                digest.update(repr(sorted(result.to_dict().items())).encode())
    return digest.hexdigest()


def test_pricing_is_bit_identical_to_the_golden_digest():
    assert pricing_digest() == EXPECTED


def test_cold_and_warm_configs_price_identically():
    # Fresh copies carry no memoized aggregates; the shared presets usually
    # do by now.  Their tables are also equal but distinct objects, where
    # the presets repeat one table object.  Both must price to the same bits.
    fresh = tuple(
        dataclasses.replace(
            model, tables=tuple(dataclasses.replace(table) for table in model.tables)
        )
        for model in PAPER_MODELS
    )
    assert pricing_digest(fresh) == EXPECTED
    assert pricing_digest() == EXPECTED
