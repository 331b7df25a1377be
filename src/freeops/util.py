"""Small shared helpers: canonical JSON and hashing."""

from __future__ import annotations

import hashlib
import json


def canonical_json(data) -> str:
    """Stable JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
