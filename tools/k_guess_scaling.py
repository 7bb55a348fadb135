"""K-guess search scaling on generated default theories, one JSON line per size.

Runs in-process on the ``nmr`` package of this checkout, with nothing
downloaded and the standard library only.  Three deterministic shapes:

* ``shared_nixon`` k = 1..8: k Nixon diamonds over one shared ``r`` and
  ``q`` (``r & q``, and per diamond ``~(h_i & d_i)``, ``r : h_i / h_i``,
  ``q : d_i / d_i``), the shape of the benchmark's ``dl_nixon``; 2^k
  extensions.
* ``disjoint_nixon`` k = 1..4: k diamonds on their own atoms
  (``r_i & q_i``, ``~(h_i & d_i)``, ``h_i -> x_i``, ``r_i : h_i / h_i``,
  ``q_i : d_i / d_i``); 2^k extensions.
* ``chain`` of 2..10 pairs: ``a_i : b_i / b_i``, with every other
  ``a_i`` a fact; one extension.

Each is solved under ``reiter`` and ``weak`` (the stable extensions and
the expansions of the translation).  A line gives the median wall time
of 3 solves in ms, the parse excluded, the result count and a digest of
the result masks, so two checkouts can be compared line by line::

    python3 tools/k_guess_scaling.py
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nmr.defaults import dl_semantics, parse_default_theory  # noqa: E402

SEMANTICS = ("reiter", "weak")
SIZES = {"shared_nixon": range(1, 9), "disjoint_nixon": range(1, 5), "chain": range(2, 11)}
REPEATS = 3


def shared_nixon(k: int) -> str:
    atoms = ["r", "q"] + [f"{p}{i}" for i in range(k) for p in ("h", "d")]
    lines = ["vocab: " + " ".join(atoms), "r & q"]
    for i in range(k):
        lines += [f"~(h{i} & d{i})", f"r : h{i} / h{i}", f"q : d{i} / d{i}"]
    return "\n".join(lines) + "\n"


def disjoint_nixon(k: int) -> str:
    atoms = [f"{p}{i}" for i in range(k) for p in ("r", "q", "h", "d", "x")]
    lines = ["vocab: " + " ".join(atoms)]
    for i in range(k):
        lines += [f"r{i} & q{i}", f"~(h{i} & d{i})", f"h{i} -> x{i}",
                  f"r{i} : h{i} / h{i}", f"q{i} : d{i} / d{i}"]
    return "\n".join(lines) + "\n"


def chain(n: int) -> str:
    atoms = [f"{p}{i}" for i in range(n) for p in ("a", "b")]
    lines = ["vocab: " + " ".join(atoms)]
    lines += [f"a{i}" for i in range(0, n, 2)]
    lines += [f"a{i} : b{i} / b{i}" for i in range(n)]
    return "\n".join(lines) + "\n"


SHAPES = {"shared_nixon": shared_nixon, "disjoint_nixon": disjoint_nixon, "chain": chain}


def measure(shape: str, size: int, semantics: str) -> dict:
    """One row: the median ms of ``REPEATS`` solves, the result count and
    a digest of the result masks."""
    dt = parse_default_theory(SHAPES[shape](size))
    times, masks = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = dl_semantics(dt, semantics)
        times.append((time.perf_counter() - start) * 1000)
        masks = [b.mask for b in result.belief_states()]
    digest = hashlib.sha1(",".join(format(m, "x") for m in masks).encode()).hexdigest()[:12]
    return {"shape": shape, "size": size, "semantics": semantics,
            "ms": round(statistics.median(times), 3), "results": len(masks),
            "digest": digest}


def main() -> int:
    for shape, sizes in SIZES.items():
        for size in sizes:
            for semantics in SEMANTICS:
                print(json.dumps(measure(shape, size, semantics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
