"""Shared helpers for the benchmark harness.

Every artifact test regenerates one table or figure of the paper with a
single direct call, prints the same rows/series the paper reports, and
additionally writes the rendered text to ``benchmarks/output/`` so the
artifacts survive output capturing.  Wall-clock is measured by
``bench/run.py``, not here.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Optional

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def peak_rss_bytes() -> Optional[int]:
    """Best-available resident-set-size probe, in bytes.

    Prefers ``psutil`` when it is installed; falls back to the stdlib
    ``resource.getrusage`` peak (``ru_maxrss`` is KiB on Linux, bytes on
    macOS).  Returns ``None`` when neither source exists, so perf
    benchmarks can *skip* instead of fail on minimal installs.
    """
    try:
        import psutil
    except ImportError:
        pass
    else:
        return int(psutil.Process().memory_info().rss)
    try:
        import resource
    except ImportError:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


@pytest.fixture(scope="session")
def rss_probe():
    """Skip perf benchmarks when no RSS probe is available at all."""
    if peak_rss_bytes() is None:
        pytest.skip("peak-RSS probe unavailable (no psutil and no resource module)")
    return peak_rss_bytes


@pytest.fixture(scope="session")
def report_sink():
    """Return a callable that prints a rendered report and saves it to disk."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _sink(name: str, text: str) -> None:
        print()
        print(text)
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _sink


@pytest.fixture(scope="session")
def system():
    from repro.config import HARPV2_SYSTEM

    return HARPV2_SYSTEM
