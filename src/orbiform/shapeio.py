"""Shape and result JSON files: strict readers, deterministic writers.

Shape schema: { "dim": 2|3, "width": number, "coeffs": [entry, ...] } with entries
{ "degree": int, "part": "cos"|"sin", "value": number } for dim 2 and
{ "degree": int, "order": int, "value": number } for dim 3. Unknown fields, and
a name given twice in one object, are rejected at both levels. Entries may
arrive in any order; writers emit them in increasing degree and skip exact
zeros. Coefficient values are inner products against the orthonormal harmonic
basis.

For dim 2 the coefficients describe the support function of a body; for dim 3
they describe a curvature-sum deviation candidate. A dim-2 shape file may also
list "switches" (written before "coeffs"): the switch angles of a bang-bang
body, as `orbiform reuleaux --out` writes them, in orbiform.switches'
convention. body2d.validate then certifies the file in closed form.

Result schema, what `orbiform optimize --out` writes (variational.result_to_json):
the keys of RESULT_KEYS, plus "equivalence_warning": true in dim 3 only, an
optional "switches" list of angles in dim 2 only (written before "coeffs") and
an optional "timestamp" string. Here "coeffs" is a curvature-deviation window:
the closed form of the switches when there are any, else the minimizer's
analysis. "area" is null in dim 3, and "violation" and "sign_consistency" are
measure fractions. loads_shape reads both kinds as a ShapeFile, told apart by
the "phi" key: a shape file's has phi and area None.

Importing this module loads no numpy: the reader checks the schema with the
standard library, and a SpectralCoeffs is built only for a caller that asks
for one (ShapeFile.coeffs, entries_to_coeffs); the writer dumps_shape takes
the values as a list of floats. Nor does it load
json: one formatter (_dumps) writes both kinds of file, byte for byte what
json.dumps(payload, indent=2) gives, and refuses a NaN or an infinity, as the
reader does, and any string that json would escape. Only loads_shape imports
json.
"""

from __future__ import annotations

import math
import os
import tempfile
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .harmonic_core import SpectralCoeffs

__all__ = [
    "ShapeFile",
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
# most switch angles a file may hold; validate's closed form of them costs
# the count times the degree in math calls (switches.switch_checks)
MAX_SWITCHES = 255
RESULT_KEYS = ("dim", "width", "phi", "area", "iterations", "seed", "violation",
               "sign_consistency", "coeffs")
SHAPE_KEYS = ("dim", "width", "coeffs")


class ShapeFile(NamedTuple):
    """A shape or result file as read back: values are its coefficients in
    harmonic_core's flat layout up to max_degree; switches, and a result
    file's phi and area, are None where the file has none."""

    dim: int
    width: float
    max_degree: int
    values: list[float]
    switches: tuple[float, ...] | None = None
    phi: float | None = None
    area: float | None = None

    @property
    def coeffs(self) -> SpectralCoeffs:
        """The values as SpectralCoeffs (this imports numpy)."""
        from .harmonic_core import SpectralCoeffs

        return SpectralCoeffs(self.dim, self.max_degree, self.values)


class ShapeFormatError(ValueError):
    """Shape JSON that does not conform to the schema."""


def _index(dim: int, degree: int, key) -> int:
    """Flat index of (degree, part) in dim 2 or (degree, order) in dim 3, in
    harmonic_core.SpectralCoeffs' layout; _entries inverts it."""
    if dim == 3:
        return degree * degree + degree + key
    return 0 if degree == 0 else 2 * degree - 1 + (key == "sin")


def coeffs_to_entries(coeffs: SpectralCoeffs) -> list[dict]:
    """The nonzero coefficients as file entries, in the flat layout's order."""
    return _entries(coeffs.dim, coeffs.values.tolist())


def _entries(dim: int, values: list[float]) -> list[dict]:
    """coeffs_to_entries of values in the flat layout of dim 2 or 3: index i
    holds degree (i + 1) // 2, cos at odd i and sin at even i > 0, in dim 2,
    and degree l = isqrt(i), order i - l^2 - l, in dim 3."""
    if dim == 2:
        return [{"degree": (i + 1) // 2, "part": "sin" if i and i % 2 == 0 else "cos", "value": v}
                for i, v in enumerate(values) if v != 0.0]
    entries = []
    for i, v in enumerate(values):
        if v != 0.0:
            degree = math.isqrt(i)
            entries.append({"degree": degree, "order": i - degree * degree - degree, "value": v})
    return entries


def _string(text: str) -> str:
    """text quoted as json.dumps writes it. The files hold only printable
    ASCII strings (keys, "cos"/"sin" and --timestamp's ISO text), which json
    writes as they are; any other string raises ShapeFormatError."""
    if not (text.isascii() and text.isprintable()) or '"' in text or "\\" in text:
        _fail(f"cannot write the string {text!r:.80}: it is not plain printable ASCII")
    return f'"{text}"'


def _json(obj, newline: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2) writes it, byte for byte, for the
    dicts with string keys, lists, plain strings (_string), numbers, booleans
    and None of the files here; newline carries the indent of obj's own line.
    Floats are written by float.__repr__, as json does (so a numpy float64
    reads as a plain number), and a non-finite one raises ShapeFormatError,
    since loads_shape refuses NaN and Infinity."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            _fail(f"cannot write the non-finite number {float.__repr__(obj)}")
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, list):
        items = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [f"{_string(k)}: {_json(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(payload: dict) -> str:
    """The text of a shape or result file: json.dumps(payload, indent=2) and
    a newline, written without json."""
    return _json(payload) + "\n"


def _fail(msg: str) -> None:
    raise ShapeFormatError(msg)


def _check_value(v, what: str = "coefficient value") -> float:
    """v as a finite float; an integer too large for a float is refused too."""
    try:
        ok = not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:
        ok = False
    if not ok:
        _fail(f"{what} must be a finite number, got {v!r:.80}")
    return float(v)


def _check_width(width) -> float:
    if _check_value(width, "width") <= 0:
        _fail(f"width must be a finite number > 0, got {width!r:.80}")
    return float(width)


def _check_degree(d) -> int:
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        _fail(f"degree must be a non-negative integer, got {d!r}")
    return d


def _check_max_degree(dim: int, degree: int) -> None:
    limit = MAX_DEGREE_2D if dim == 2 else MAX_DEGREE_3D
    if degree > limit:
        _fail(f"degree {degree} is above the dim-{dim} limit of {limit}")


def _check_switches(switches) -> tuple[float, ...]:
    if not isinstance(switches, list) or len(switches) > MAX_SWITCHES:
        _fail(f"switches must be a list of at most {MAX_SWITCHES} angles, got {switches!r:.80}")
    return tuple(_check_value(t, "switch angle") for t in switches)


def _parse_entries(dim: int, entries) -> tuple[int, list[float]]:
    """(max_degree, values in the flat layout) of a coeffs list, checked."""
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
    values = [0.0] * (2 * max_degree + 1 if dim == 2 else (max_degree + 1) ** 2)
    seen: set[tuple[int, object]] = set()
    for degree, key, value in parsed:
        if (degree, key) in seen:
            _fail(f"duplicate coefficient entry (degree={degree}, {key!r})")
        seen.add((degree, key))
        values[_index(dim, degree, key)] = value
    return max_degree, values


def entries_to_coeffs(dim: int, entries) -> SpectralCoeffs:
    from .harmonic_core import SpectralCoeffs

    return SpectralCoeffs(dim, *_parse_entries(dim, entries))


def dumps_shape(dim: int, width: float, values: list[float], switches=None) -> str:
    """The shape file's text for coefficient values in the flat layout of dim
    2 or 3, with "switches" (dim 2 only) when given; ShapeFormatError if
    loads_shape would refuse its width, degrees, switches or values."""
    entries = _entries(dim, values)
    _check_max_degree(dim, entries[-1]["degree"] if entries else 0)
    payload: dict = {"dim": dim, "width": _check_width(width)}
    if switches is not None:
        if dim != 2:
            _fail("switches belong to dim-2 shape files only")
        payload["switches"] = list(_check_switches(list(switches)))
    payload["coeffs"] = entries
    return _dumps(payload)


def _object(pairs: list) -> dict:
    """A JSON object's dict for json.loads; a name given twice in one object
    raises ShapeFormatError, where json alone would keep the last."""
    seen: set[str] = set()
    for name, _ in pairs:
        if name in seen:
            _fail(f"the name {name!r:.80} appears twice in one object")
        seen.add(name)
    return dict(pairs)


def loads_shape(text: str) -> ShapeFile:
    """The ShapeFile of a shape file, or of a result file if the text has a
    top-level "phi" key. Either kind is refused with ShapeFormatError unless it
    holds exactly the keys of its schema, each once."""
    import json

    try:
        data = json.loads(text, object_pairs_hook=_object)
    except ShapeFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep a nesting
        raise ShapeFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        _fail("top level must be an object")
    result = "phi" in data
    keys = RESULT_KEYS if result else SHAPE_KEYS
    if data.get("dim") == 2:
        extra = {"switches", "timestamp"} if result else {"switches"}
    else:
        extra = {"equivalence_warning", "timestamp"} if result else set()
    if not set(keys) <= set(data) <= set(keys) | extra:
        plus = f", plus {' and '.join(sorted(extra))} if any" if extra else ""
        _fail(f"{'result' if result else 'top-level'} keys must be {'/'.join(keys)}{plus}, "
              f"got {sorted(data)}")
    dim = data["dim"]
    if not isinstance(dim, int) or dim not in (2, 3):  # True and False are neither
        _fail(f"dim must be 2 or 3, got {dim!r}")
    width = _check_width(data["width"])
    switches = _check_switches(data["switches"]) if "switches" in data else None
    shape = ShapeFile(dim, width, *_parse_entries(dim, data["coeffs"]), switches)
    if not result:
        return shape
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
    return shape._replace(phi=_check_value(data["phi"], "phi"), area=area)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename into place
    with the mode open(path, "w") gives a new file: 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")  # mode 0o600
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0o022)  # the only way to read it is to set it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
