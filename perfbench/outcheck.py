"""Output check for one campaign's stdout.

A campaign's stdout is hashed with its bracketed accounting lines
removed (``[executor]``, ``[optimizer]``, ``[journal]``).  Those lines
report reuse -- points evaluated, cache hits, grid evaluations saved --
so a change that only improves reuse leaves the hash unchanged, while
any change to a printed row changes it.

The ``[executor]`` line is parsed separately into its
``E evaluated, H cache hits, F failures`` counts.

Run directly to hash a saved stdout::

    python3 perfbench/outcheck.py < fig4.stdout
"""

from __future__ import annotations

import hashlib
import re
import sys
from typing import Optional, Tuple

#: Prefixes of the accounting lines left out of the hash.
ACCOUNTING_PREFIXES = ("[executor]", "[optimizer]", "[journal]")

_EXECUTOR_LINE = re.compile(
    r"^\[executor\] (\d+) evaluated, (\d+) cache hits, (\d+) failures$",
    re.MULTILINE,
)


def output_hash(stdout: str) -> str:
    """SHA-256 of ``stdout`` without its accounting lines."""
    kept = [
        line
        for line in stdout.splitlines()
        if not line.startswith(ACCOUNTING_PREFIXES)
    ]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


def executor_counts(stdout: str) -> Optional[Tuple[int, int, int]]:
    """``(evaluated, cache_hits, failures)`` from the last ``[executor]`` line."""
    matches = _EXECUTOR_LINE.findall(stdout)
    if not matches:
        return None
    evaluated, hits, failures = matches[-1]
    return int(evaluated), int(hits), int(failures)


if __name__ == "__main__":
    text = sys.stdin.read()
    print(output_hash(text), executor_counts(text))
