"""Output gate: every byte an operation writes must match the reference.

Reference digests live in ``reference_digests.json`` next to this file,
keyed ``<size>/<workload>/<variant>``. ``record_references.py`` recorded
them from the pctlab sources as they stood when the benchmark was added;
re-record only in a change that moves outputs on purpose and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_digests.json")


def digest_dir(root: str) -> Dict:
    """sha256 over every file under ``root`` (sorted relative paths), plus
    the file count and the byte total."""
    combined = hashlib.sha256()
    files = total = 0
    paths = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, names in os.walk(root) for f in names)
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        combined.update(f"{rel}\0{hashlib.sha256(data).hexdigest()}\n".encode())
        files += 1
        total += len(data)
    return {"sha256": combined.hexdigest(), "files": files, "bytes": total}


def reference_key(size: str, workload: str, variant: int) -> str:
    return f"{size}/{workload}/{variant}"


def load_references(path: str = REFERENCE_FILE) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(digest: Dict, reference: Optional[Dict]) -> List[str]:
    """Problems with ``digest`` against ``reference``; empty when equal."""
    if reference is None:
        return ["no reference digest recorded for these inputs"]
    return [f"{key}: got {digest[key]!r}, reference {reference[key]!r}"
            for key in ("sha256", "files", "bytes") if digest[key] != reference[key]]


def flip_byte(root: str) -> str:
    """Invert the first byte of the first result file; returns its path.

    Used to prove the gate end to end (``run.py --flip-byte``).
    """
    path = min(os.path.join(d, f) for d, _, names in os.walk(root) for f in names)
    with open(path, "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([first[0] ^ 0xFF]))
    return path
