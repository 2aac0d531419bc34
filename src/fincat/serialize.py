"""JSON loading and dumping for the file formats the CLI accepts.

Categories: {"objects": [str], "morphisms": [{"name","dom","cod"}],
"identity": {object: morphism}, "comp": [{"g","f","gf"}]} — the comp list
must cover exactly the composable pairs.  Functors: {"source": path-or-
inline, "target": path-or-inline, "omap": {...}, "mmap": {...}}.
Transformations: {"source": functor, "target": functor, "components":
{object: morphism}}.  Simplicial sets follow ``TruncSSet.to_dict``.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .core import (
    FinCat,
    FinFunctor,
    NatTrans,
    StructureError,
    builtin,
    validate_category,
    validate_functor,
    validate_transformation,
)
from .nerve import TruncSSet, sset_from_dict, validate_sset


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path) -> str:
    return digest_bytes(Path(path).read_bytes())


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StructureError(f"{path}: malformed JSON: {exc}") from exc
    except OSError as exc:
        raise StructureError(f"{path}: {exc}") from exc


def _resolve(node, base: Path):
    """A node is either inline data or a relative path to another file."""
    if isinstance(node, str):
        return load_json(base / node), (base / node)
    if isinstance(node, dict):
        return node, None
    raise StructureError("expected a JSON object or a path string")


def load_category(path) -> FinCat:
    path = Path(path)
    data = load_json(path)
    cat = validate_category(data)
    cat.label = data.get("label", path.stem)
    return cat


def category_from_node(node, base: Path) -> FinCat:
    # "builtin:<name>" references the builtin library directly
    if isinstance(node, str) and node.startswith("builtin:"):
        return builtin(node.split(":", 1)[1])
    data, src = _resolve(node, base)
    cat = validate_category(data)
    cat.label = data.get("label", src.stem if src else "cat")
    return cat


def _name_table(data: dict, key: str) -> dict:
    table = data[key]
    if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
        raise StructureError(f"{key}: expected an object of strings")
    return table


def _label(data: dict, default: str) -> str:
    label = data.get("label", default)
    if not isinstance(label, str):
        raise StructureError("label: expected a string")
    return label


def functor_from_node(node, base: Path) -> FinFunctor:
    data, _ = _resolve(node, base)
    try:
        source = category_from_node(data["source"], base)
        target = category_from_node(data["target"], base)
        omap, mmap = _name_table(data, "omap"), _name_table(data, "mmap")
        F = FinFunctor(source, target, omap, mmap, label=_label(data, "functor"))
    except KeyError as exc:
        raise StructureError(f"malformed functor data: missing {exc}") from exc
    return validate_functor(F)


def load_functor(path) -> FinFunctor:
    path = Path(path)
    F = functor_from_node(load_json(path), path.parent)
    if F.label == "functor":
        F.label = path.stem
    return F


def transformation_from_node(node, base: Path) -> NatTrans:
    data, _ = _resolve(node, base)
    try:
        source = functor_from_node(data["source"], base)
        target = functor_from_node(data["target"], base)
        components = _name_table(data, "components")
        t = NatTrans(source, target, components, label=_label(data, "nat"))
    except KeyError as exc:
        raise StructureError(f"malformed transformation data: missing {exc}") from exc
    return validate_transformation(t)


def load_transformation(path) -> NatTrans:
    path = Path(path)
    return transformation_from_node(load_json(path), path.parent)


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
