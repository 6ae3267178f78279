"""Helpers for the tests of damaged and failed model and bank files."""

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


def write_npy(path, array):
    """A bare ``.npy`` file at ``path`` (``np.save`` given a path would add
    the ``.npy`` suffix)."""
    with open(path, "wb") as fh:
        np.save(fh, array)
