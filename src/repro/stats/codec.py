"""Lossless JSON codec for numpy arrays.

The persistent model store serializes fitted models to JSON documents.
Coefficient vectors and data matrices must survive the round trip
*bitwise* — the serving tier's byte-identity contract compares answers
from a loaded model against a freshly fitted one — so arrays are not
written as decimal literals (which would be fine for Python floats but
wasteful) but as base64 of their raw little-endian bytes plus dtype and
shape.  ``array_from_doc(array_to_doc(a))`` reproduces ``a`` exactly for
any real dtype.
"""

from __future__ import annotations

import base64

import numpy as np


def array_to_doc(array: np.ndarray) -> dict:
    """JSON-safe document encoding ``array`` losslessly.

    The array is converted to C order and little-endian byte order before
    encoding, so the document is identical across producing platforms.
    """
    array = np.ascontiguousarray(array)
    dtype = array.dtype.newbyteorder("<")
    return {
        "dtype": dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(
            array.astype(dtype, copy=False).tobytes()).decode("ascii"),
    }


def array_from_doc(doc: dict) -> np.ndarray:
    """Rebuild the array encoded by :func:`array_to_doc`, bitwise.

    Raises
    ------
    KeyError, ValueError, TypeError
        If the document is malformed (the store's fail-closed loaders
        catch these and fall back to refitting).
    """
    dtype = np.dtype(doc["dtype"])
    shape = tuple(int(n) for n in doc["shape"])
    raw = base64.b64decode(doc["data"].encode("ascii"), validate=True)
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    # frombuffer yields a read-only view over the decoded bytes; hand back
    # an owned, writable, native-order array like any other.
    return array.astype(dtype.newbyteorder("="), copy=True)
