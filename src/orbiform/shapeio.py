"""Shape and result JSON files: strict readers, deterministic writers.

Shape schema: { "dim": 2|3, "width": number, "coeffs": [entry, ...] } with entries
{ "degree": int, "part": "cos"|"sin", "value": number } for dim 2 and
{ "degree": int, "order": int, "value": number } for dim 3. Unknown fields are
rejected at both levels. Entries may arrive in any order; writers emit them in
increasing degree and skip exact zeros. Coefficient values are inner products
against the orthonormal harmonic basis.

For dim 2 the coefficients describe the support function of a body; for dim 3
they describe a curvature-sum deviation candidate.

Result schema, what `orbiform optimize --out` writes (variational.result_to_json):
the keys of RESULT_KEYS, plus "equivalence_warning": true in dim 3 only, an
optional "switches" list of angles in dim 2 only (written before "coeffs") and
an optional "timestamp" string. Here "coeffs" is a curvature-deviation window:
the closed form of the switches when there are any, else the minimizer's
analysis. "area" is null in dim 3, and "violation" and "sign_consistency" are
measure fractions. loads_shape reads both kinds and tells them apart by the
"phi" key.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import NamedTuple

import numpy as np

from .harmonic_core import SpectralCoeffs, index2, index3, num_coeffs

__all__ = [
    "ResultFile",
    "ShapeFormatError",
    "coeffs_to_entries",
    "entries_to_coeffs",
    "dumps_shape",
    "loads_shape",
    "write_text_atomic",
]


# largest degree a file may hold; dim-3 validate builds an (L+1)^3 Legendre
# table, 128 MiB at degree 255 and growing as L^3, held only while its grid lives
MAX_DEGREE_2D, MAX_DEGREE_3D = 4096, 255
# most switch angles a result file may hold; validate's closed form of them
# peaks at 8.4 MiB with degree 4096, growing as the count times the degree
MAX_SWITCHES = 255
RESULT_KEYS = ("dim", "width", "phi", "area", "iterations", "seed", "violation",
               "sign_consistency", "coeffs")


class ResultFile(NamedTuple):
    """An optimize result file as read back: its shape part, phi, area and
    switch angles (None when the file has none)."""

    dim: int
    width: float
    coeffs: SpectralCoeffs
    phi: float
    area: float | None
    switches: tuple[float, ...] | None = None


class ShapeFormatError(ValueError):
    """Shape JSON that does not conform to the schema."""


def coeffs_to_entries(coeffs: SpectralCoeffs) -> list[dict]:
    entries: list[dict] = []
    if coeffs.dim == 2:
        for degree in range(coeffs.max_degree + 1):
            for part in ("cos", "sin"):
                if degree == 0 and part == "sin":
                    continue
                v = coeffs.values[index2(degree, part)]
                if v != 0.0:
                    entries.append({"degree": degree, "part": part, "value": float(v)})
    else:
        for degree in range(coeffs.max_degree + 1):
            for order in range(-degree, degree + 1):
                v = coeffs.values[index3(degree, order)]
                if v != 0.0:
                    entries.append({"degree": degree, "order": order, "value": float(v)})
    return entries


def _fail(msg: str) -> None:
    raise ShapeFormatError(msg)


def _check_value(v, what: str = "coefficient value") -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
        _fail(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _check_degree(d) -> int:
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        _fail(f"degree must be a non-negative integer, got {d!r}")
    return d


def _check_max_degree(dim: int, degree: int) -> None:
    limit = MAX_DEGREE_2D if dim == 2 else MAX_DEGREE_3D
    if degree > limit:
        _fail(f"degree {degree} is above the dim-{dim} limit of {limit}")


def entries_to_coeffs(dim: int, entries) -> SpectralCoeffs:
    if not isinstance(entries, list):
        _fail("coeffs must be a list")
    max_degree = 0
    parsed: list[tuple[int, object, float]] = []
    for e in entries:
        if not isinstance(e, dict):
            _fail("each coefficient entry must be an object")
        if dim == 2:
            if set(e.keys()) != {"degree", "part", "value"}:
                _fail(f"dim-2 entry keys must be degree/part/value, got {sorted(e.keys())}")
            degree = _check_degree(e["degree"])
            part = e["part"]
            if part not in ("cos", "sin"):
                _fail(f"part must be 'cos' or 'sin', got {part!r}")
            if degree == 0 and part == "sin":
                _fail("degree 0 has no sin part")
            key = part
        else:
            if set(e.keys()) != {"degree", "order", "value"}:
                _fail(f"dim-3 entry keys must be degree/order/value, got {sorted(e.keys())}")
            degree = _check_degree(e["degree"])
            order = e["order"]
            if isinstance(order, bool) or not isinstance(order, int) or abs(order) > degree:
                _fail(f"order must be an integer with |order| <= degree, got {order!r}")
            key = order
        value = _check_value(e["value"])
        parsed.append((degree, key, value))
        max_degree = max(max_degree, degree)

    _check_max_degree(dim, max_degree)
    values = np.zeros(num_coeffs(dim, max_degree))
    seen: set[tuple[int, object]] = set()
    for degree, key, value in parsed:
        if (degree, key) in seen:
            _fail(f"duplicate coefficient entry (degree={degree}, {key!r})")
        seen.add((degree, key))
        idx = index2(degree, key) if dim == 2 else index3(degree, key)
        values[idx] = value
    return SpectralCoeffs(dim, max_degree, values)


def dumps_shape(dim: int, width: float, coeffs: SpectralCoeffs) -> str:
    """The shape file's text; ShapeFormatError if loads_shape would refuse its degrees."""
    entries = coeffs_to_entries(coeffs)
    _check_max_degree(dim, max((e["degree"] for e in entries), default=0))
    payload = {"dim": dim, "width": float(width), "coeffs": entries}
    return json.dumps(payload, indent=2) + "\n"


def loads_shape(text: str) -> tuple[int, float, SpectralCoeffs] | ResultFile:
    """(dim, width, coeffs) of a shape file, or the ResultFile of a result file.

    A top-level "phi" key makes the text a result file; either kind is refused
    with ShapeFormatError unless it holds exactly the keys of its schema.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ShapeFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        _fail("top level must be an object")
    result = "phi" in data
    if result:
        extra = {"equivalence_warning" if data.get("dim") == 3 else "switches", "timestamp"}
        if not set(RESULT_KEYS) <= set(data) <= set(RESULT_KEYS) | extra:
            _fail(f"result keys must be {'/'.join(RESULT_KEYS)}, plus "
                  f"{' and '.join(sorted(extra))} if any, got {sorted(data)}")
    elif set(data) != {"dim", "width", "coeffs"}:
        _fail(f"top-level keys must be dim/width/coeffs, got {sorted(data)}")
    dim = data["dim"]
    if dim not in (2, 3):
        _fail(f"dim must be 2 or 3, got {dim!r}")
    width = data["width"]
    if isinstance(width, bool) or not isinstance(width, (int, float)) or not np.isfinite(width) or width <= 0:
        _fail(f"width must be a finite number > 0, got {width!r}")
    coeffs = entries_to_coeffs(dim, data["coeffs"])
    if not result:
        return dim, float(width), coeffs
    for key in ("iterations", "seed"):
        if isinstance(data[key], bool) or not isinstance(data[key], int):
            _fail(f"{key} must be an integer, got {data[key]!r}")
    for key in ("violation", "sign_consistency"):
        if not 0.0 <= _check_value(data[key], key) <= 1.0:
            _fail(f"{key} must be a fraction in [0, 1], got {data[key]!r}")
    if dim == 3 and (data["area"] is not None or data.get("equivalence_warning") is not True):
        _fail('a dim-3 result has "area": null and "equivalence_warning": true')
    if not isinstance(data.get("timestamp", ""), str):
        _fail(f"timestamp must be a string, got {data['timestamp']!r}")
    area = _check_value(data["area"], "area") if dim == 2 else None
    switches = data.get("switches", [])
    if not isinstance(switches, list) or len(switches) > MAX_SWITCHES:
        _fail(f"switches must be a list of at most {MAX_SWITCHES} angles, got {switches!r:.80}")
    switches = tuple(_check_value(t, "switch angle") for t in switches) if "switches" in data else None
    return ResultFile(dim, float(width), coeffs, _check_value(data["phi"], "phi"), area, switches)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
