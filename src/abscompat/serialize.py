"""File formats for matrices and maps.

Complex scalars serialize as two-element [re, im] arrays throughout, written
by ``linalg._pairs`` as report witnesses are; matrices are row-major nested
lists, one entry per block. A map file either carries a builder spec (kind
plus parameters) or a raw action matrix on vectorized coordinates.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import AbscompatError
from .linalg import _pairs
from .preservers import (
    MAX_TOTAL_DIM,
    LinearMap,
    _check_map_shapes,
    build_block_map,
    build_sandwich,
    build_star_anti_hom,
    build_star_hom,
    identity_map,
    scale_map,
    transpose_map,
)
from .tolerance import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "FileFormatError",
    "matrix_to_dict",
    "matrix_from_dict",
    "load_matrix",
    "save_matrix",
    "map_to_dict",
    "map_from_dict",
    "load_map",
    "save_map",
    "dumps_canonical",
]


class FileFormatError(AbscompatError):
    """Malformed matrix/map payload."""


def _read_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a too-long int, deep nesting
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: Any) -> bool:
    try:
        return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _at(index: int, shape: tuple[int, ...]) -> str:
    return "".join(f"[{i}]" for i in np.unravel_index(index, shape))


def _complex_array(raw: Any, shape: tuple[int, ...], where: str) -> np.ndarray:
    """The complex array of ``shape`` written in ``raw`` as nested lists of
    [re, im] pairs of finite numbers (bools and ints beyond the float range
    are refused). The nesting is checked against ``shape`` one level at a
    time, so nothing larger than ``raw`` is built before the array is."""
    items = [raw]
    for depth, n in enumerate((*shape, 2)):
        pair = depth == len(shape)
        kinds = (list, tuple) if pair else list  # a pair may be a tuple
        bad = next((i for i, x in enumerate(items) if not (isinstance(x, kinds) and len(x) == n)),
                   None)
        if bad is not None:
            what = "entries must be [re, im] pairs" if pair else f"expected {n} entries"
            raise FileFormatError(f"{where}{_at(bad, shape[:depth])}: {what}")
        items = list(chain.from_iterable(items)) if depth else raw  # rows checked in place
    bad = next((i for i, x in enumerate(items) if not _is_number(x)), None)
    if bad is not None:
        raise FileFormatError(f"{where}{_at(bad // 2, shape)}: entries must be finite numbers")
    return np.array(items, dtype=np.float64).view(np.complex128).reshape(shape)


def _items(raw: Any, key: str, what: str, ok: Callable[[Any], bool],
           count: int | None = None) -> list:
    """The entries of the list ``raw`` (``count`` of them, or at least one),
    each passing ``ok``."""
    need = f"'{key}' must be a list of {count or 'one or more'} {what}"
    if not isinstance(raw, list) or (not raw if count is None else len(raw) != count):
        raise FileFormatError(need)
    bad = next((i for i, x in enumerate(raw) if not ok(x)), None)
    if bad is not None:
        raise FileFormatError(f"{need}; entry {bad} is {raw[bad]!r:.20}")
    return list(raw)


def _shape(payload: dict, key: str) -> AlgebraShape:
    return AlgebraShape(_items(payload.get(key), key, "positive ints",
                               lambda d: _is_int(d) and d >= 1))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def matrix_to_dict(el: AlgebraElement) -> dict:
    return {"shape": list(el.shape.block_dims), "blocks": [_pairs(b) for b in el.blocks()]}


def matrix_from_dict(payload: Any) -> AlgebraElement:
    if not isinstance(payload, dict):
        raise FileFormatError("matrix payload must be an object")
    shape = _shape(payload, "shape")
    if (n := shape.total_dim) > MAX_TOTAL_DIM:  # before a block is allocated
        raise FileFormatError(f"total dimension {n} exceeds the limit {MAX_TOTAL_DIM}")
    blocks = _items(payload.get("blocks"), "blocks", "blocks", lambda _: True, shape.num_blocks)
    return AlgebraElement.from_blocks(shape, [
        _complex_array(rows, (dim, dim), f"block {k}")
        for k, (rows, dim) in enumerate(zip(blocks, shape.block_dims))
    ])


def load_matrix(path: str | Path) -> AlgebraElement:
    return matrix_from_dict(_read_json(path))


def save_matrix(el: AlgebraElement, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(matrix_to_dict(el)), encoding="utf-8")


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

_BUILDER_KINDS = ("star_hom", "star_anti_hom", "block_map", "sandwich",
                  "transpose", "identity", "scale")


def map_to_dict(T: LinearMap) -> dict:
    """Maps always serialize in raw-action form (builder files are inputs):
    the two shapes and the action, nothing else."""
    return {
        "domain_shape": list(T.domain_shape.block_dims),
        "codomain_shape": list(T.codomain_shape.block_dims),
        "action": _pairs(T.action),
    }


def _parse_unitaries(raw: Any, codomain: AlgebraShape) -> list | None:
    if raw is None:
        return None
    items = _items(raw, "unitaries", "matrices or nulls",
                   lambda u: u is None or isinstance(u, list), codomain.num_blocks)
    return [None if u is None else _complex_array(u, (dim, dim), f"unitary {j}")
            for j, (u, dim) in enumerate(zip(items, codomain.block_dims))]


def map_from_dict(payload: Any, tol: ToleranceConfig = DEFAULT_TOL) -> LinearMap:
    if not isinstance(payload, dict):
        raise FileFormatError("map payload must be an object")
    domain = _shape(payload, "domain_shape")
    codomain = _shape(payload, "codomain_shape")
    _check_map_shapes(domain, codomain)  # before a raw action is allocated
    if ("builder" in payload) == ("action" in payload):
        raise FileFormatError("map needs exactly one of 'builder' or 'action'")
    if "action" in payload:
        n, m = domain.total_dim, codomain.total_dim
        action = _complex_array(payload["action"], (m * m, n * n), "action")
        return LinearMap(domain, codomain, action)

    spec = payload["builder"]
    if not isinstance(spec, dict) or spec.get("kind") not in _BUILDER_KINDS:
        raise FileFormatError(f"'builder.kind' must be one of {', '.join(_BUILDER_KINDS)}")
    kind = spec["kind"]
    if kind in ("transpose", "identity", "scale", "sandwich") and domain != codomain:
        raise FileFormatError(f"builder {kind!r} requires equal domain and codomain")
    if kind == "transpose":
        return transpose_map(domain)
    if kind == "identity":
        return identity_map(domain)
    if kind == "scale":
        return scale_map(domain, complex(_complex_array(spec.get("factor"), (), "builder.factor")))
    if kind == "sandwich":
        u, v = (matrix_from_dict(spec.get(key)) for key in ("u", "v"))
        if u.shape != domain or v.shape != domain:
            raise FileFormatError("sandwich u/v must live on the domain shape")
        return build_sandwich(u, v, tol)
    k = codomain.num_blocks
    assignment = _items(spec.get("block_assignment"), "block_assignment", "ints or nulls",
                        lambda x: x is None or _is_int(x), k)
    unitaries = _parse_unitaries(spec.get("unitaries"), codomain)
    if kind == "star_hom":
        return build_star_hom(domain, codomain, assignment, unitaries, tol)
    if kind == "star_anti_hom":
        return build_star_anti_hom(domain, codomain, assignment, unitaries, tol)
    flags = spec.get("transpose_flags")
    if flags is not None:
        flags = _items(flags, "transpose_flags", "bools", lambda x: isinstance(x, bool), k)
    return build_block_map(domain, codomain, assignment, flags, unitaries, tol)


def load_map(path: str | Path, tol: ToleranceConfig = DEFAULT_TOL) -> LinearMap:
    return map_from_dict(_read_json(path), tol)


def save_map(T: LinearMap, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(map_to_dict(T)), encoding="utf-8")


def dumps_canonical(payload: dict) -> str:
    """Stable text form: sorted keys, no float mangling (repr round-trips)."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"
