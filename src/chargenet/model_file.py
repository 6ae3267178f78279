"""The model file, and the one module that reads and writes it.

A served model is one file: ``save_model`` stores the parameters, the token
ids of the article texts they attend over (``article_docs``) and the
extractor bank that picks the slots, and ``load_model`` gives back that model
and that bank, so the loaded pair serves bit for bit as the saved one. The
bank keeps no k: ``config.k`` is the one number of slots.

The file is one uncompressed ``.npz`` archive, replaced atomically. Its
members, in order: each parameter under its ``named()`` name, the
``DOCS_ARRAYS``, for a bank each of the ``BANK_ARRAYS`` under ``BANK`` and
its name, and ``meta``, JSON text holding the file's format and version, the
``META_FIELDS`` and, under ``bank``, the ``BANK_FIELDS`` or null. The zip
format keeps a CRC-32 of every member, which ``load_arrays`` checks. Every
fault ``load_model`` finds raises ``StateError`` naming the file.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from .article_extractor import ExtractorBank, TfidfModel
from .charge_model import (EXTRACTOR_VARIANTS, PAD_ID, UNK_ID, ChargeModel, ModelConfig,
                           ModelParams)
from .corpus import article_id_to_json, article_ids_from_json, article_sort_key
from .ndtensor import StateError

# The format and version save_arrays writes; load_arrays reads no other.
FILE_FORMAT = "model"
FORMAT_VERSION = 4

# The JSON type of each meta field, and of each field of a bank's meta entry:
# its vocabulary in column order and its article ids in row order.
META_FIELDS = {"config": dict, "charge_vocab": list, "article_ids": list,
               "word_vocab": list, "pos_vocab": list, "tau": float}
BANK_FIELDS = {"vocabulary": list, "article_ids": list}
# The arrays of article_docs: the word and the POS ids of every sentence end to
# end, the words per sentence and the sentences per article, in id order.
DOCS_ARRAYS = dict.fromkeys(("docs.words", "docs.pos", "docs.sentence_lens",
                             "docs.article_lens"), np.int64)
# The arrays of a bank, each stored as the member BANK + its name: idf and bias
# as they are, and the weight matrix as its nonzero entries, weights[i] in row
# scorers[i] and column selected[i].
BANK = "bank."
BANK_ARRAYS = {"idf": np.float64, "bias": np.float64, "scorers": np.int64,
               "selected": np.int64, "weights": np.float64}


@contextmanager
def atomic_write(path):
    """Write ``path`` all at once: the block writes a new binary file beside
    it, which replaces ``path`` only when the block finishes. If the block
    raises, the new file is removed and ``path`` keeps its old content (or
    stays absent). The new file is synced before the rename, and the
    directory after it, so the rename itself survives a crash."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    directory = os.open(head or os.curdir, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write ``arrays``, each the member of its name, and ``meta`` plus the
    file's format and version, as the JSON text of the member ``meta``, to
    ``path`` as one uncompressed ``.npz`` archive (``atomic_write``)."""
    text = json.dumps({**meta, "format": FILE_FORMAT, "version": FORMAT_VERSION},
                      ensure_ascii=False)
    with atomic_write(path) as fh:
        np.savez(fh, **arrays, meta=np.array(text))


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays by name and the meta of a ``save_arrays`` file. Raises
    ``StateError`` naming ``path`` when the file is not a readable archive
    (empty, truncated, not a zip, an array that needs pickle), a member fails
    its CRC-32, the meta is missing or not a JSON object, or the file is of
    another format or version."""
    source = f"model file {path}"
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("it holds one .npy array")
            with archive:
                arrays = {}
                # Reading a member to its end checks its CRC-32.
                for member in archive.zip.namelist():
                    try:
                        arrays[member.removesuffix(".npy")] = archive[member]
                    except zipfile.BadZipFile as exc:
                        raise zipfile.BadZipFile(
                            f"member {member!r} fails its CRC-32 check") from exc
        # A corrupt header byte can also make zipfile seek before the start
        # (OSError) or see an unsupported compression (NotImplementedError)
        # or encryption (RuntimeError). The file itself opened above.
        except (zipfile.BadZipFile, EOFError, ValueError, OSError, NotImplementedError,
                RuntimeError) as exc:
            raise StateError(f"{source} is not a readable archive: {exc}") from exc
    text = arrays.pop("meta", None)
    if text is None or text.dtype.kind != "U" or text.ndim != 0:
        raise StateError(f"{source} has no meta text member")
    try:
        meta = json.loads(text.item())
    except ValueError as exc:
        raise StateError(f"{source} meta is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise StateError(f"{source} meta is not a JSON object")
    found = (meta.get("format"), meta.get("version"))
    if found != (FILE_FORMAT, FORMAT_VERSION):
        raise StateError(f"{source} holds format {found[0]!r} version {found[1]!r}, "
                         f"not {FILE_FORMAT!r} version {FORMAT_VERSION}")
    return arrays, meta


def _check_fields(meta: dict, types: dict[str, type], source: str) -> None:
    """Raise StateError naming ``source`` unless ``meta`` holds every field
    of ``types`` as its JSON type."""
    for key, typ in types.items():
        if not isinstance(meta.get(key), typ):
            raise StateError(f"{source} has no {key!r} of type {typ.__name__}")


def _vectors(arrays: dict[str, np.ndarray], dtypes: dict[str, type],
             source: str) -> list[np.ndarray]:
    """``arrays[name]`` for each name of ``dtypes``, in its order; StateError
    naming ``source`` when one is missing or not one axis of it."""
    found = []
    for name, dtype in dtypes.items():
        arr = arrays.get(name)
        if arr is None:
            raise StateError(f"{source} has no {name!r} array")
        if arr.dtype != dtype or arr.ndim != 1:
            raise StateError(f"{source} array {name!r} has type {arr.dtype} and shape "
                             f"{arr.shape}, not {np.dtype(dtype)} and one axis")
        found.append(arr)
    return found


def _vocab_index(entries: list, source: str, key: str) -> dict[str, int]:
    """The position of each entry of the meta list ``key``, a vocabulary;
    StateError naming ``source`` when an entry is not a string or repeats."""
    index: dict[str, int] = {}
    for i, tok in enumerate(entries):
        if not isinstance(tok, str):
            raise StateError(f"{source} has a {key} entry that is not a string")
        if tok in index:
            raise StateError(f"{source} repeats the {key} entry {tok!r}")
        index[tok] = i
    return index


def _docs_to_arrays(article_docs: dict, article_ids: list) -> dict[str, np.ndarray]:
    """``article_docs`` as the ``DOCS_ARRAYS``, articles in ``article_ids`` order."""
    docs = [article_docs[aid] for aid in article_ids]
    sents = [sent for doc in docs for sent in doc]
    columns = (np.concatenate([np.zeros(0, np.int64)] + [w for w, _ in sents]),
               np.concatenate([np.zeros(0, np.int64)] + [t for _, t in sents]),
               [len(w) for w, _ in sents], [len(doc) for doc in docs])
    return {name: np.asarray(col, dtype=np.int64) for name, col in zip(DOCS_ARRAYS, columns)}


def _docs_from_arrays(arrays: dict[str, np.ndarray], article_ids: list, n_words: int,
                      n_pos: int, source: str) -> dict:
    """The ``article_docs`` of ``_docs_to_arrays``. Raises StateError naming
    ``source`` for a missing array or one of another dtype or rank, lengths
    below 1 or that do not add up, or an id outside its vocabulary."""
    words, tags, sent_lens, art_lens = _vectors(arrays, DOCS_ARRAYS, source)
    if (sent_lens < 1).any() or (art_lens < 1).any():
        raise StateError(f"{source} has an article or a sentence of length below 1")
    if (art_lens.size, art_lens.sum(), sent_lens.sum()) != (
            len(article_ids), sent_lens.size, words.size) or words.size != tags.size:
        raise StateError(f"{source} docs lengths do not add up: {len(article_ids)} article "
                         f"ids, {art_lens.size} articles of {art_lens.sum()} sentences, "
                         f"{sent_lens.size} sentences of {sent_lens.sum()} words, "
                         f"{words.size} word ids and {tags.size} POS ids")
    for key, ids, n in (("word", words, n_words), ("POS", tags, n_pos)):
        if ((ids < 0) | (ids >= n)).any():
            raise StateError(f"{source} holds a {key} id outside [0, {n})")
    ends = np.cumsum(sent_lens)
    sents = [(words[hi - n:hi], tags[hi - n:hi]) for n, hi in zip(sent_lens, ends)]
    ends = np.cumsum(art_lens)
    return {aid: sents[hi - n:hi] for aid, n, hi in zip(article_ids, art_lens, ends)}


def _bank_to_arrays(bank: ExtractorBank) -> tuple[dict[str, np.ndarray], dict]:
    """The bank's members and its meta entry."""
    scorers, selected = np.nonzero(bank.weights)
    vocab = bank.tfidf.vocabulary
    arrays = (bank.tfidf.idf, bank.bias, scorers, selected, bank.weights[scorers, selected])
    return {BANK + name: arr for name, arr in zip(BANK_ARRAYS, arrays)}, {
        "vocabulary": sorted(vocab, key=vocab.__getitem__),
        "article_ids": [article_id_to_json(aid) for aid in bank.article_ids]}


def _bank_from_arrays(arrays: dict[str, np.ndarray], meta: dict | None,
                      source: str) -> ExtractorBank | None:
    """The bank ``_bank_to_arrays`` put in ``arrays``, with its meta entry
    ``meta``; None when there is neither. Raises StateError naming
    ``source`` for bank arrays without a meta entry, a fault of the arrays or
    the entry, an index outside the matrix, or a NaN or an infinity."""
    stored = {name: arrays[BANK + name] for name in BANK_ARRAYS if BANK + name in arrays}
    if meta is None and not stored:
        return None
    if not isinstance(meta, dict):
        raise StateError(f"{source} holds bank arrays but no bank meta")
    _check_fields(meta, BANK_FIELDS, f"{source} bank meta")
    idf, bias, scorers, selected, values = _vectors(stored, BANK_ARRAYS, f"{source} bank")
    tfidf = TfidfModel(_vocab_index(meta["vocabulary"], source, "vocabulary"), idf)
    if idf.size != tfidf.n_features:
        raise StateError(f"{source} has {tfidf.n_features} words but {idf.size} idf values")
    article_ids = article_ids_from_json(meta["article_ids"], source, "scorer")
    if bias.size != len(article_ids):
        raise StateError(f"{source} has {len(article_ids)} article ids but "
                         f"{bias.size} bias values")
    if not scorers.size == selected.size == values.size:
        raise StateError(f"{source} has {scorers.size} scorer rows and {selected.size} "
                         f"selected columns but {values.size} weights")
    if ((scorers < 0) | (scorers >= len(article_ids))).any():
        raise StateError(f"{source} selects a row outside [0, {len(article_ids)})")
    if ((selected < 0) | (selected >= tfidf.n_features)).any():
        raise StateError(f"{source} selects a column outside [0, {tfidf.n_features})")
    if not np.isfinite(np.concatenate([idf, values, bias])).all():
        raise StateError(f"{source} holds a non-numeric value (NaN) or an infinity")
    weights = np.zeros((len(article_ids), tfidf.n_features))
    weights[scorers, selected] = values
    return ExtractorBank(tfidf, article_ids, weights, bias)


def _check_bank(config: ModelConfig, bank: ExtractorBank | None, article_ids: list,
                source: str) -> None:
    """Raise StateError naming ``source`` unless ``bank`` is one the variant
    serves with: none for fact_only and fact_gold_art, else a bank of at
    least ``config.k`` articles, each one the model has text for."""
    variant = config.variant.value
    if config.variant not in EXTRACTOR_VARIANTS:
        if bank is not None:
            raise StateError(f"{source}: variant {variant} takes no extractor bank")
        return
    if bank is None:
        raise StateError(f"{source}: variant {variant} needs an extractor bank")
    if config.k > len(bank.article_ids):
        raise StateError(f"{source}: k={config.k} outside [1, {len(bank.article_ids)}], "
                         "the bank's articles")
    missing = set(bank.article_ids) - set(article_ids)
    if missing:
        raise StateError(f"{source}: the bank ranks articles "
                         f"{sorted(missing, key=article_sort_key)} the model has no text for")


def save_model(path, model: ChargeModel, bank: ExtractorBank | None = None) -> None:
    """Write ``model`` and ``bank`` to ``path`` as one model file, replaced
    atomically. A bank that ``_check_bank`` refuses raises StateError before
    anything is written."""
    article_ids = sorted(model.article_docs, key=article_sort_key)
    _check_bank(model.config, bank, article_ids, f"model file {path}")
    bank_arrays, bank_meta = ({}, None) if bank is None else _bank_to_arrays(bank)
    save_arrays(path, {**{name: t.data for name, t in model.params.named()},
                       **_docs_to_arrays(model.article_docs, article_ids), **bank_arrays}, {
        "config": model.config.to_dict(),
        "charge_vocab": model.charge_vocab,
        "article_ids": [article_id_to_json(a) for a in article_ids],
        "word_vocab": sorted(model.word_vocab, key=model.word_vocab.__getitem__),
        "pos_vocab": sorted(model.pos_vocab, key=model.pos_vocab.__getitem__),
        "tau": model.tau,
        "bank": bank_meta,
    })


def load_model(path) -> tuple[ChargeModel, ExtractorBank | None]:
    """The model and the bank of a ``save_model`` file. Besides the faults of
    the helpers above, a vocabulary without ``<pad>`` and ``<unk>`` first, a
    tau outside (0, 1), a config other than ``ModelConfig``'s fields or of
    values it rejects, or a tensor that does not fit the configured model
    raises ``StateError`` naming the file. Meta fields it does not read are
    ignored; a file of another version is refused."""
    source = f"model file {path}"
    arrays, meta = load_arrays(path)
    _check_fields(meta, META_FIELDS, f"{source} meta")
    _, word_vocab, pos_vocab = (_vocab_index(meta[key], source, key)
                                for key in ("charge_vocab", "word_vocab", "pos_vocab"))
    for key in ("word_vocab", "pos_vocab"):
        if meta[key][:2] != ["<pad>", "<unk>"]:
            raise StateError(f"{source} {key} does not begin with '<pad>' at {PAD_ID} "
                             f"and '<unk>' at {UNK_ID}")
    if not 0.0 < meta["tau"] < 1.0:
        raise StateError(f"{source} has tau {meta['tau']!r}, outside (0, 1)")
    known = {f.name for f in fields(ModelConfig)}
    unknown = sorted(set(meta["config"]) - known)
    if unknown:
        raise StateError(f"{source} has config fields this version does not know: {unknown}")
    missing = sorted(known - set(meta["config"]))
    if missing:
        raise StateError(f"{source} has no config fields {missing}")
    try:
        config = ModelConfig(**meta["config"])
    except (TypeError, ValueError) as exc:
        raise StateError(f"{source} holds a bad config: {exc}") from exc
    article_ids = article_ids_from_json(meta["article_ids"], source, "article")
    params = ModelParams.create(config, len(word_vocab), len(pos_vocab),
                                len(meta["charge_vocab"]), None)
    named = dict(params.named())
    bank_members = {BANK + name for name in BANK_ARRAYS}
    stored = {name: arr for name, arr in arrays.items()
              if name not in DOCS_ARRAYS and name not in bank_members}
    if set(stored) != set(named):
        missing = set(named) ^ set(stored)
        raise StateError(f"{source} does not match the configured model: {sorted(missing)}")
    for name, arr in stored.items():
        if named[name].shape != arr.shape:
            raise StateError(f"{source} parameter {name} has shape {arr.shape}, "
                             f"expected {named[name].shape}")
        if arr.dtype != np.float64:
            raise StateError(f"{source} parameter {name} has dtype {arr.dtype}, "
                             "expected float64")
        named[name].data = np.ascontiguousarray(arr)
    article_docs = _docs_from_arrays(arrays, article_ids, len(word_vocab), len(pos_vocab),
                                     source)
    bank = _bank_from_arrays(arrays, meta.get("bank"), source)
    _check_bank(config, bank, article_ids, source)
    return ChargeModel(config, params, word_vocab, pos_vocab, meta["charge_vocab"],
                       article_docs, tau=meta["tau"]), bank
