"""Helpers for the tests of damaged and failed model files.

Every damaged file is a saved one that ``rewrite(path, *edits)`` changes, each
edit an ``edit`` or a ``drop`` of a member, a meta field or an entry, or
``put_bank``; raw members are written only for a file that is no model
archive. ``assert_refused`` makes a refusal check: ``load_model``, and a save
where one is refused, raises StateError naming the file and the problem, and
the file stays as it was.
"""

import json

import numpy as np
import pytest

from chargenet import model_file as mf
from chargenet.ndtensor import StateError


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


def saved(tmp_path, model, bank=None):
    """The path of ``model`` and ``bank``, saved as ``m.npz`` in ``tmp_path``."""
    path = tmp_path / "m.npz"
    mf.save_model(path, model, bank)
    return path


def rewrite(path, *edits):
    """Apply each ``edit(members)`` to the model file at ``path`` and write
    it back. ``members`` holds the arrays by name and, under ``"meta"``, the
    parsed meta, ``format`` and ``version`` included; the meta is written
    last, as JSON text, or as it is when an edit made it a string (text that
    is no JSON) or an array."""
    with np.load(path) as archive:
        members = dict(archive)
    members["meta"] = json.loads(members["meta"].item())
    for apply in edits:
        apply(members)
    if "meta" in members:
        meta = members.pop("meta")
        members["meta"] = np.array(meta if isinstance(meta, (str, np.ndarray))
                                   else json.dumps(meta, ensure_ascii=False))
    write_members(path, **members)


def _owner(members, keys):
    """The container of the last of ``keys`` and that key: ``keys`` lead
    from a member name down through meta fields or list or array entries."""
    *path, last = keys
    for key in path:
        members = members[key]
    return members, last


def edit(*keys, to):
    """An edit that sets what ``keys`` lead to to ``to``, or to ``to(old)``
    when ``to`` is callable."""
    def apply(members):
        owner, last = _owner(members, keys)
        owner[last] = to(owner[last]) if callable(to) else to
    return apply


def drop(*keys):
    """An edit that removes what ``keys`` lead to."""
    def apply(members):
        owner, last = _owner(members, keys)
        del owner[last]
    return apply


def put_bank(bank):
    """An edit that makes ``bank`` (None for none) the file's bank."""
    def apply(members):
        for name in [n for n in members if n.startswith(mf.BANK)]:
            del members[name]
        arrays, members["meta"]["bank"] = ({}, None) if bank is None else mf._bank_to_arrays(bank)
        members.update(arrays)
    return apply


def assert_refused(path, problem, save=None):
    """``load_model(path)``, and ``save()`` when given, raise StateError
    whose message begins with the file's name and holds ``problem``, and
    leave the file as it was. Returns the load's message."""
    before = path.read_bytes()
    for call in ([save] if save else []) + [lambda: mf.load_model(path)]:
        with pytest.raises(StateError) as err:
            call()
        message = str(err.value)
        assert message.startswith((f"model file {path} ", f"model file {path}: ")), message
        assert problem in message, message
        assert path.read_bytes() == before
    return message
