"""Small shared helpers: canonical JSON and hashing."""

from __future__ import annotations

import hashlib
import json


def canonical_json(data, fp) -> None:
    """Write stable JSON text to the stream fp: sorted keys, fixed
    separators, trailing newline.  Streaming keeps large reports from being
    built as one string."""
    json.dump(data, fp, indent=2, sort_keys=True)
    fp.write("\n")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
