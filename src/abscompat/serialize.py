"""File formats for matrices and maps.

Complex scalars serialize as two-element [re, im] arrays throughout; matrices
are row-major nested lists, one entry per block. A map file either carries a
builder spec (kind plus parameters) or a raw action matrix on vectorized
coordinates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import AbscompatError
from .preservers import (
    LinearMap,
    Provenance,
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


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pair_to_complex(pair: Any, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) for x in pair)
    ):
        raise FileFormatError(f"{where}: entries must be [re, im] pairs")
    z = complex(float(pair[0]), float(pair[1]))
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise FileFormatError(f"{where}: entries must be finite")
    return z


def _block_to_lists(block: np.ndarray) -> list:
    return [[_complex_to_pair(z) for z in row] for row in block]


def _lists_to_block(rows: Any, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise FileFormatError(f"{where}: expected {dim} rows")
    block = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise FileFormatError(f"{where}: row {i} must have {dim} entries")
        for j, pair in enumerate(row):
            block[i, j] = _pair_to_complex(pair, f"{where}[{i}][{j}]")
    return block


def _parse_shape(payload: Any, key: str) -> AlgebraShape:
    dims = payload.get(key) if isinstance(payload, dict) else None
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(d, int) and d >= 1 for d in dims)
    ):
        raise FileFormatError(f"'{key}' must be a nonempty list of positive ints")
    return AlgebraShape(dims)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def matrix_to_dict(el: AlgebraElement) -> dict:
    return {
        "shape": list(el.shape.block_dims),
        "blocks": [_block_to_lists(b) for b in el.blocks()],
    }


def matrix_from_dict(payload: Any) -> AlgebraElement:
    if not isinstance(payload, dict):
        raise FileFormatError("matrix payload must be an object")
    shape = _parse_shape(payload, "shape")
    blocks = payload.get("blocks")
    if not isinstance(blocks, list) or len(blocks) != shape.num_blocks:
        raise FileFormatError(
            f"'blocks' must be a list of {shape.num_blocks} blocks"
        )
    mats = [
        _lists_to_block(rows, dim, f"block {k}")
        for k, (rows, dim) in enumerate(zip(blocks, shape.block_dims))
    ]
    return AlgebraElement.from_blocks(shape, mats)


def load_matrix(path: str | Path) -> AlgebraElement:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    return matrix_from_dict(payload)


def save_matrix(el: AlgebraElement, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(matrix_to_dict(el)), encoding="utf-8")


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

_BUILDER_KINDS = (
    "star_hom", "star_anti_hom", "block_map", "sandwich",
    "transpose", "identity", "scale",
)


def map_to_dict(T: LinearMap) -> dict:
    """Maps always serialize in raw-action form (builder files are inputs)."""
    return {
        "domain_shape": list(T.domain_shape.block_dims),
        "codomain_shape": list(T.codomain_shape.block_dims),
        "provenance": T.provenance.value,
        "action": [[_complex_to_pair(z) for z in row] for row in T.action],
    }


def _parse_unitaries(raw: Any, codomain: AlgebraShape) -> list | None:
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != codomain.num_blocks:
        raise FileFormatError(
            "'unitaries' must list one entry (or null) per codomain block"
        )
    out = []
    for j, item in enumerate(raw):
        if item is None:
            out.append(None)
        else:
            out.append(_lists_to_block(item, codomain.block_dims[j], f"unitary {j}"))
    return out


def _parse_assignment(raw: Any, codomain: AlgebraShape) -> list:
    if not isinstance(raw, list) or len(raw) != codomain.num_blocks:
        raise FileFormatError(
            "'block_assignment' must list one entry (or null) per codomain block"
        )
    for x in raw:
        if x is not None and not isinstance(x, int):
            raise FileFormatError("'block_assignment' entries must be ints or null")
    return list(raw)


def map_from_dict(
    payload: Any, tol: ToleranceConfig = DEFAULT_TOL
) -> LinearMap:
    if not isinstance(payload, dict):
        raise FileFormatError("map payload must be an object")
    domain = _parse_shape(payload, "domain_shape")
    codomain = _parse_shape(payload, "codomain_shape")
    _check_map_shapes(domain, codomain)  # before a raw action is allocated
    has_builder = "builder" in payload
    has_action = "action" in payload
    if has_builder == has_action:
        raise FileFormatError("map needs exactly one of 'builder' or 'action'")

    if has_action:
        n2 = domain.total_dim**2
        m2 = codomain.total_dim**2
        rows = payload["action"]
        if not isinstance(rows, list) or len(rows) != m2:
            raise FileFormatError(f"'action' must have {m2} rows")
        action = np.zeros((m2, n2), dtype=np.complex128)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n2:
                raise FileFormatError(f"'action' row {i} must have {n2} entries")
            for j, pair in enumerate(row):
                action[i, j] = _pair_to_complex(pair, f"action[{i}][{j}]")
        prov = payload.get("provenance", Provenance.CUSTOM.value)
        try:
            provenance = Provenance(prov)
        except ValueError as exc:
            raise FileFormatError(f"unknown provenance {prov!r}") from exc
        return LinearMap(domain, codomain, action, provenance)

    spec = payload["builder"]
    if not isinstance(spec, dict) or spec.get("kind") not in _BUILDER_KINDS:
        raise FileFormatError(
            f"'builder.kind' must be one of {', '.join(_BUILDER_KINDS)}"
        )
    kind = spec["kind"]
    if kind in ("transpose", "identity", "scale", "sandwich") and domain != codomain:
        raise FileFormatError(f"builder {kind!r} requires equal domain and codomain")
    if kind == "transpose":
        return transpose_map(domain)
    if kind == "identity":
        return identity_map(domain)
    if kind == "scale":
        return scale_map(domain, _pair_to_complex(spec.get("factor"), "builder.factor"))
    if kind == "sandwich":
        u = matrix_from_dict(spec.get("u"))
        v = matrix_from_dict(spec.get("v"))
        if u.shape != domain or v.shape != domain:
            raise FileFormatError("sandwich u/v must live on the domain shape")
        return build_sandwich(u, v, tol)
    assignment = _parse_assignment(spec.get("block_assignment"), codomain)
    unitaries = _parse_unitaries(spec.get("unitaries"), codomain)
    if kind == "star_hom":
        return build_star_hom(domain, codomain, assignment, unitaries, tol)
    if kind == "star_anti_hom":
        return build_star_anti_hom(domain, codomain, assignment, unitaries, tol)
    flags = spec.get("transpose_flags")
    if flags is not None and (
        not isinstance(flags, list)
        or len(flags) != codomain.num_blocks
        or not all(isinstance(x, bool) for x in flags)
    ):
        raise FileFormatError(
            "'transpose_flags' must list one bool per codomain block"
        )
    return build_block_map(domain, codomain, assignment, flags, unitaries, tol)


def load_map(path: str | Path, tol: ToleranceConfig = DEFAULT_TOL) -> LinearMap:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    return map_from_dict(payload, tol)


def save_map(T: LinearMap, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(map_to_dict(T)), encoding="utf-8")


def dumps_canonical(payload: dict) -> str:
    """Stable text form: sorted keys, no float mangling (repr round-trips)."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"
