"""JSON loading and dumping for the file formats the CLI accepts.

Categories: {"objects": [str], "morphisms": [{"name","dom","cod"}],
"identity": {object: morphism}, "comp": [{"g","f","gf"}]} — the comp list
must cover exactly the composable pairs, each once.  Functors: {"source":
path-or-inline, "target": path-or-inline, "omap": {...}, "mmap": {...}}.
Transformations: {"source": functor, "target": functor, "components":
{object: morphism}}.  Simplicial sets follow ``TruncSSet.to_dict``.

Each loader takes its node's JSON path ``at`` (``maps[0]``, also when the
node names another file) and hands each child the child's path, so every
:class:`StructureError` starts with the path of the node at fault.  A JSON
object read from a file is labelled with the file's stem unless it names
its own ``label``, before anything checks it, so a whole-input check of a
file names it by the same label the value keeps; an inline node without a
label takes its kind's default (``cat``, ``functor``, ``nat``).
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .core import (
    FinCat,
    FinCatError,
    FinFunctor,
    NatTrans,
    at_key,
    builtin,
    field,
    refused,
    validate_category,
    validate_functor,
    validate_transformation,
)
from .nerve import TruncSSet, sset_from_dict, validate_sset


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path) -> str:
    return digest_bytes(Path(path).read_bytes())


def load_json(path, at: str = ""):
    """The JSON value in the file ``path``, read for the node at ``at``; a
    JSON object without a ``label`` gets the file's stem as its label."""
    file = Path(path)
    try:
        data = json.loads(file.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise refused(at, f"{path}: malformed JSON: {exc}") from exc
    # a path with a NUL byte raises a ValueError
    except (OSError, ValueError) as exc:
        raise refused(at, f"{path}: {exc}") from exc
    if type(data) is dict:
        data.setdefault("label", file.stem)
    return data


def _resolve(node, base: Path, at: str):
    """A node is either inline data or a relative path to another file."""
    if isinstance(node, str):
        return load_json(base / node, at)
    if isinstance(node, dict):
        return node
    raise refused(at, "expected a JSON object or a path string")


def load_category(path) -> FinCat:
    return validate_category(load_json(path))


def category_from_node(node, base: Path, at: str = "") -> FinCat:
    # "builtin:<name>" references the builtin library directly
    if isinstance(node, str) and node.startswith("builtin:"):
        try:
            return builtin(node.split(":", 1)[1])
        except FinCatError as exc:  # an unknown name or one over the size limit
            exc.args = refused(at, str(exc)).args
            raise
    return validate_category(_resolve(node, base, at), at)


def _names(data: dict, key: str, at: str) -> dict:
    return field(data, key, at, dict, "an object of strings", of=str)


def functor_from_node(node, base: Path, at: str = "") -> FinFunctor:
    data = _resolve(node, base, at)
    source = category_from_node(field(data, "source", at), base, at_key(at, "source"))
    target = category_from_node(field(data, "target", at), base, at_key(at, "target"))
    omap, mmap = _names(data, "omap", at), _names(data, "mmap", at)
    label = field(data, "label", at, str, "a string", default="functor")
    return validate_functor(FinFunctor(source, target, omap, mmap, label=label), at)


def load_functor(path) -> FinFunctor:
    return functor_from_node(load_json(path), Path(path).parent)


def transformation_from_node(node, base: Path, at: str = "") -> NatTrans:
    data = _resolve(node, base, at)
    source = functor_from_node(field(data, "source", at), base, at_key(at, "source"))
    target = functor_from_node(field(data, "target", at), base, at_key(at, "target"))
    components = _names(data, "components", at)
    label = field(data, "label", at, str, "a string", default="nat")
    return validate_transformation(NatTrans(source, target, components, label=label), at=at)


def load_transformation(path) -> NatTrans:
    return transformation_from_node(load_json(path), Path(path).parent)


def load_sset(path) -> TruncSSet:
    path = Path(path)
    return validate_sset(sset_from_dict(load_json(path), label=path.stem))


def functor_summary(F: FinFunctor) -> dict:
    """Compact form: endpoint digests plus the maps."""
    return {
        "source_digest": F.source.digest,
        "target_digest": F.target.digest,
        "source_label": F.source.label,
        "target_label": F.target.label,
        "omap": dict(F.omap),
        "mmap": dict(F.mmap),
        "label": F.label,
    }


def category_summary(C: FinCat) -> dict:
    return {
        "label": C.label,
        "objects": C.n_objects,
        "morphisms": C.n_morphisms,
        "digest": C.digest,
    }
