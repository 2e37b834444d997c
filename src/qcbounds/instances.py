"""Self-describing JSON documents for (state, A, B) instances.

A document looks like ``{"dim": n, "rho": grid, "a": grid, "b": grid}``
where each grid is a row-major list of ``{"re": x, "im": y}`` cells.
Numbers are written with 17 significant digits, enough to round-trip a
double exactly, and the rendering is canonical so equal instances always
serialize to identical bytes.  Extra top-level keys are preserved on save
and ignored on load, which lets search results travel as instances.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InstanceFormatError
from .hermitian import DensityMatrix, HermitianMatrix, make_density, make_hermitian


def instance_payload(
    state: DensityMatrix, a: HermitianMatrix, b: HermitianMatrix
) -> dict:
    """Return the JSON-ready document for one instance."""
    return {
        "dim": state.dim,
        "rho": _grid(state.mat),
        "a": _grid(a.mat),
        "b": _grid(b.mat),
    }


def payload_to_instance(
    payload,
) -> tuple[DensityMatrix, HermitianMatrix, HermitianMatrix]:
    """Rebuild validated matrices from a parsed document.

    Structural problems raise ``InstanceFormatError``; a structurally
    sound document whose matrices fail validation raises the matching
    construction error instead.
    """
    if not isinstance(payload, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    for key in ("dim", "rho", "a", "b"):
        if key not in payload:
            raise InstanceFormatError(f"instance document lacks {key!r}")
    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InstanceFormatError(f"dim must be a positive integer, got {dim!r}")
    rho = _matrix_from_grid(payload["rho"], dim, "rho")
    a = _matrix_from_grid(payload["a"], dim, "a")
    b = _matrix_from_grid(payload["b"], dim, "b")
    return make_density(rho), make_hermitian(a), make_hermitian(b)


def render_document(payload: dict) -> str:
    """Render a document to canonical JSON text with 17-digit floats."""
    return _render(payload)


def save_instance(
    path,
    state: DensityMatrix,
    a: HermitianMatrix,
    b: HermitianMatrix,
    extra: dict | None = None,
) -> None:
    """Write the instance document to ``path``, merging any extra keys."""
    payload = instance_payload(state, a, b)
    if extra:
        payload.update(extra)
    Path(path).write_text(render_document(payload) + "\n", encoding="utf-8")


def load_instance(path) -> tuple[DensityMatrix, HermitianMatrix, HermitianMatrix]:
    """Read and validate an instance document from ``path``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    return payload_to_instance(payload)


def _grid(mat: np.ndarray) -> list:
    return [
        [{"re": float(cell.real), "im": float(cell.imag)} for cell in row]
        for row in np.asarray(mat, dtype=complex)
    ]


def _matrix_from_grid(grid, n: int, name: str) -> np.ndarray:
    if not isinstance(grid, list) or len(grid) != n:
        raise InstanceFormatError(f"{name} must be a list of {n} rows")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != n:
            raise InstanceFormatError(f"{name} row {i} must have {n} cells")
        for j, cell in enumerate(row):
            if not isinstance(cell, dict) or set(cell) != {"re", "im"}:
                raise InstanceFormatError(
                    f"{name}[{i}][{j}] must be an object with re and im"
                )
            re, im = cell["re"], cell["im"]
            if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (re, im)):
                raise InstanceFormatError(f"{name}[{i}][{j}] entries must be numbers")
            try:
                out[i, j] = complex(re, im)
            except OverflowError:
                # JSON integers have no size limit; a float cannot hold
                # one past about 1.8e308.
                raise InstanceFormatError(
                    f"{name}[{i}][{j}] is past the float range"
                ) from None
    return out


def _render(value) -> str:
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")
