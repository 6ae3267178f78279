"""Helpers for the tests of damaged and failed model files."""

import json

import numpy as np


class Unwritable:
    """An array stand-in whose conversion fails, as a full disk would part
    way through a write."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


def write_members(path, **members):
    """An archive of exactly ``members``, written without ``save_arrays`` (so
    its meta member may be anything)."""
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def rewrite(path, edit):
    """Apply ``edit(arrays, meta)`` to the model file at ``path``: its arrays
    by name and its parsed meta, ``format`` and ``version`` included, are
    edited in place and written back, the meta last."""
    with np.load(path) as archive:
        arrays = dict(archive)
    meta = json.loads(arrays.pop("meta").item())
    edit(arrays, meta)
    write_members(path, **arrays, meta=np.array(json.dumps(meta, ensure_ascii=False)))


def write_npy(path, array):
    """A bare ``.npy`` file at ``path`` (``np.save`` given a path would add
    the ``.npy`` suffix)."""
    with open(path, "wb") as fh:
        np.save(fh, array)
