"""JSON readers and writers for POVMs, states, candidate sets and strategies.

Matrix encoding: row-major nested lists with each complex entry a [re, im]
pair.  NaN/Inf anywhere in a file is rejected at parse time.
"""

from __future__ import annotations

import json

import numpy as np

from .adaptive import AdaptiveStrategy
from .core import DensityMatrix, Povm
from .errors import ParseError, StructuralError


def _reject_constant(token):
    raise ParseError(f"non-finite number {token!r} in input")


def loads_strict(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads_strict(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _dim_from_json(obj) -> int:
    """obj["dim"], a JSON integer >= 1; true and 2.0 are refused."""
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:
        raise ParseError('"dim" must be a positive integer')
    return dim


def matrix_from_json(obj, dim: int, what: str) -> np.ndarray:
    """A dim x dim complex matrix from nested lists of [re, im] pairs of JSON
    numbers; strings and true/false, which numpy would convert, are refused."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: entries must be [re, im] pairs") from exc
    if arr.shape != (dim, dim, 2):
        raise ParseError(f"{what}: expected shape {dim}x{dim} of [re, im] pairs, got {arr.shape}")
    leaves = (x for row in obj for pair in row for x in pair)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in leaves):
        raise ParseError(f"{what}: entries must be JSON numbers")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{what}: non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_json(mat: np.ndarray):
    m = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def povm_from_json(obj) -> Povm:
    if not isinstance(obj, dict) or "dim" not in obj or "elements" not in obj:
        raise ParseError('POVM file must be an object with "dim" and "elements"')
    dim = _dim_from_json(obj)
    elems = obj["elements"]
    if not isinstance(elems, list) or not elems:
        raise ParseError('"elements" must be a non-empty list')
    mats = [matrix_from_json(e, dim, f"element {k}") for k, e in enumerate(elems)]
    return Povm(tuple(mats))


def povm_to_json(p: Povm):
    return {"dim": p.dim, "elements": [matrix_to_json(e) for e in p.elements]}


def candidates_from_json(obj) -> list:
    if not isinstance(obj, dict) or "dim" not in obj or not isinstance(obj.get("states"), list):
        raise ParseError('candidates file must be an object with "dim" and a list of "states"')
    dim = _dim_from_json(obj)
    return [
        DensityMatrix(matrix_from_json(s, dim, f"state {k}"))
        for k, s in enumerate(obj["states"])
    ]


def _history_from_string(text) -> tuple:
    # histories are strings of 1-based outcome digits, e.g. "" / "1" / "12"
    if not isinstance(text, str) or not all("1" <= ch <= "9" for ch in text):
        raise ParseError(f"bad history string {text!r}")
    return tuple(int(ch) - 1 for ch in text)


def _history_to_string(hist) -> str:
    # one digit per outcome, so only outcomes 0..8 can be written
    if not all(0 <= k <= 8 for k in hist):
        raise StructuralError(f"history {hist!r}: a strategy file holds outcomes 1-9 only")
    return "".join(str(k + 1) for k in hist)


def strategy_from_json(obj) -> AdaptiveStrategy:
    for key in ("depth", "dim", "candidates", "choices"):
        if not isinstance(obj, dict) or key not in obj:
            raise ParseError(f'strategy file is missing "{key}"')
    if type(obj["depth"]) is not int:
        raise ParseError('"depth" must be an integer')
    if not isinstance(obj["candidates"], list):
        raise ParseError('"candidates" must be a list of matrices')
    if not isinstance(obj["choices"], dict):
        raise ParseError('"choices" must map history strings to candidate pairs')
    grouping = obj.get("grouping")
    if grouping is not None and not isinstance(grouping, list):
        raise ParseError('"grouping" must be a list of history strings')
    dim = _dim_from_json(obj)
    cands = tuple(
        DensityMatrix(matrix_from_json(s, dim, f"candidate {k}"))
        for k, s in enumerate(obj["candidates"])
    )
    choices = {}
    for hist_str, pair in obj["choices"].items():
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(i) is int for i in pair)):
            raise ParseError(f"choice at {hist_str!r} must be a pair of candidate indices")
        choices[_history_from_string(hist_str)] = tuple(pair)
    if grouping is not None:
        grouping = frozenset(_history_from_string(h) for h in grouping)
    return AdaptiveStrategy(depth=obj["depth"], candidates=cands, choices=choices, grouping=grouping)


def strategy_to_json(strat: AdaptiveStrategy, dim: int):
    out = {
        "depth": strat.depth,
        "dim": dim,
        "candidates": [matrix_to_json(c.mat) for c in strat.candidates],
        "choices": {
            _history_to_string(h): list(pair) for h, pair in sorted(strat.choices.items())
        },
    }
    if strat.grouping is not None:
        out["grouping"] = sorted(_history_to_string(h) for h in strat.grouping)
    return out

