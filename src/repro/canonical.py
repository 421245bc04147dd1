"""Canonical JSON and content hashes shared across packages.

The campaign artifact store (:mod:`repro.evaluation.store`) and the model
store of the serving layer (:mod:`repro.service.store`) both key their
documents by the SHA-256 hash of a payload's canonical JSON, and the
serving byte-identity checks compare answers in the same form.  This
module is a leaf — it imports only the standard library — so either
package can use it without importing the other.
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(payload: object) -> str:
    """Serialize ``payload`` to a canonical JSON string.

    Keys are sorted and separators fixed so that equal payloads always
    produce byte-identical documents — the basis of both the content hash
    and the serial-vs-parallel determinism guarantee.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def content_hash(payload: object) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
