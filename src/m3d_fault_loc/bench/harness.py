"""Machine fingerprint for benchmark records.

``e2ebench/record.py`` stamps every ``BENCH_<n>.json`` it writes with
:func:`machine_fingerprint`, so two records can be checked for a shared
host and software stack before their numbers are compared.
"""

from __future__ import annotations

import os
import platform
from typing import Any

import numpy as np
import scipy


def machine_fingerprint() -> dict[str, Any]:
    """Where a record's numbers came from: platform, interpreter and numeric stack."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }
