"""JSON files for series, symbols, matrices, and operator tuples.

Conventions shared with the CLI:

  * words are digit strings over 1..9 ("" is the unit, "12" is g1 g2),
    read by `words.parse_word` and written by `words.word_text`,
  * complex scalars are [re, im] pairs; plain numbers mean a real value,
  * matrices are row-major nested lists of scalar entries,
  * a series file carries {"n", "degree", "coeff_dim", "coeffs"},
  * a symbol file carries {"n", "coeffs"} with real coefficients,
  * a matrix file carries {"matrix": rows}, a tuple file
    {"matrices": [rows, ..]}.
"""

from __future__ import annotations

import cmath
import json
from pathlib import Path

import numpy as np

from .series import FreeSeries, PositiveRegularFunction
from .words import word_text


class FormatError(ValueError):
    """A file does not follow the documented JSON layout."""


def _decode_scalar(value, where: str) -> complex:
    """A finite number or [re, im] pair; `json` reads NaN and Infinity too."""
    if isinstance(value, bool):
        raise FormatError(f"{where}: expected a number or [re, im] pair")
    if isinstance(value, (int, float)):
        parts = [value]
    elif (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in value)
    ):
        parts = value
    else:
        raise FormatError(f"{where}: expected a number or [re, im] pair")
    try:
        z = complex(*parts)
    except OverflowError:  # an integer beyond the float range
        z = complex("inf")
    if not cmath.isfinite(z):
        raise FormatError(f"{where} is not finite")
    return z


def _encode_scalar(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _decode_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise FormatError(f"{where}: expected a nonempty list of rows")
    parsed = []
    width = None
    for r, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise FormatError(f"{where}: row {r} is not a nonempty list")
        entries = [_decode_scalar(v, f"{where}[{r}][{c}]") for c, v in enumerate(row)]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise FormatError(f"{where}: ragged rows")
        parsed.append(entries)
    return np.array(parsed, dtype=complex)


def _encode_matrix(mat: np.ndarray) -> list[list[list[float]]]:
    mat = np.asarray(mat, dtype=complex)
    return [[_encode_scalar(v) for v in row] for row in mat]


def _read_json(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level must be an object")
    return data


def _require_int(data: dict, key: str, path) -> int:
    if key not in data:
        raise FormatError(f"{path}: missing field {key!r}")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{path}: field {key!r} must be an integer")
    return value


def load_series(path) -> FreeSeries:
    """Read a FreeSeries from its JSON file."""
    data = _read_json(path)
    n = _require_int(data, "n", path)
    degree = _require_int(data, "degree", path)
    e = data.get("coeff_dim", 1)
    if isinstance(e, bool) or not isinstance(e, int):
        raise FormatError(f"{path}: field 'coeff_dim' must be an integer")
    raw = data.get("coeffs", {})
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: field 'coeffs' must be an object")
    coeffs = {}
    for key, value in raw.items():
        where = f"{path}: coefficient {key!r}"
        if e == 1:
            mat = np.array([[_decode_scalar(value, where)]])
        else:
            mat = _decode_matrix(value, where)
            if mat.shape != (e, e):
                raise FormatError(f"{where}: expected shape ({e}, {e})")
        coeffs[key] = mat
    try:
        return FreeSeries(n, degree, coeffs, e)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def series_payload(series: FreeSeries) -> dict:
    """The series file layout {"n", "degree", "coeff_dim", "coeffs"} as a dict."""
    coeffs = {}
    for word, mat in series.items():
        if series.coeff_dim == 1:
            coeffs[word_text(word)] = _encode_scalar(mat[0, 0])
        else:
            coeffs[word_text(word)] = _encode_matrix(mat)
    return {
        "n": series.n,
        "degree": series.degree,
        "coeff_dim": series.coeff_dim,
        "coeffs": coeffs,
    }


def save_series(series: FreeSeries, path) -> None:
    text = json.dumps(series_payload(series), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def symbol_from_mapping(data: dict, where: str = "symbol") -> PositiveRegularFunction:
    """Build a symbol from {"n": .., "coeffs": {word: real}}."""
    n = _require_int(data, "n", where)
    raw = data.get("coeffs", {})
    if not isinstance(raw, dict):
        raise FormatError(f"{where}: field 'coeffs' must be an object")
    coeffs = {
        key: _decode_scalar(value, f"{where}: coefficient {key!r}")
        for key, value in raw.items()
    }
    try:
        return PositiveRegularFunction(n, coeffs)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_symbol(path) -> PositiveRegularFunction:
    """Read a PositiveRegularFunction; regularity is validated on load."""
    return symbol_from_mapping(_read_json(path), where=str(path))


def load_matrix(path) -> np.ndarray:
    data = _read_json(path)
    if "matrix" not in data:
        raise FormatError(f"{path}: missing field 'matrix'")
    return _decode_matrix(data["matrix"], f"{path}: matrix")


def load_tuple(path) -> list[np.ndarray]:
    data = _read_json(path)
    raw = data.get("matrices")
    if not isinstance(raw, list) or not raw:
        raise FormatError(f"{path}: field 'matrices' must be a nonempty list")
    return [
        _decode_matrix(rows, f"{path}: matrices[{k}]") for k, rows in enumerate(raw)
    ]
