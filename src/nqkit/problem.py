"""Problem files: the JSON input schema and its validated in-memory form.

A problem file declares a coordinate ring, frame data (anchor and
structure functions) and any of the optional geometric fields.  All
expression entries are strings in the polynomial grammar (integers are
accepted as a convenience); decimals are rejected because the engine is
exact.  The file is read as UTF-8.  Validation failures raise :class:`ProblemError` carrying the
path of the offending field.

Schema, with shapes in brackets:

    base_dim    int >= 1
    rank        int >= 1
    coords      [base_dim] distinct names; generated names are reserved
    anchor      [rank][base_dim] expressions, rho_a^i
    structure   [rank][rank][rank] expressions C^c_ab indexed [c][a][b],
                or sparse {"c,a,b": expr} with 1-based indices; the
                antisymmetric image is filled in and, if also given,
                must negate exactly
    metric_inv  [n][n] expressions, symmetric          (g^ij)
    metric      [n][n] expressions, symmetric          (g_ij)
    connection  [rank][rank][base_dim] expressions     (omega^a_{b,i})
    tau         [rank][rank] expressions
    alpha       [rank] expressions
    potential   expression
    beta        [base_dim] expressions
    magnetic    [n][n] expressions, antisymmetric      (B_ij)
    points      list of [base_dim] rationals (ints or "a/b")
    truncation  {"x_degree": int, "p_degree": int, "slack": int}
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from .algebroid import Algebroid, algebroid_from_lists
from .dynamics import GeometryPack
from .parser import ParseError, parse_poly, rational_from_string
from .poly import EvenPoly, Rat

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_INT_LITERAL = re.compile(r"[+-]?[0-9]+")  # ASCII digits, as the parser
_RESERVED_PREFIXES = ("p_", "xi_", "pi_", "lam_")
_RESERVED_SUFFIXES = ("_odd", "_dot")

_KNOWN_FIELDS = {
    "base_dim",
    "rank",
    "coords",
    "anchor",
    "structure",
    "metric_inv",
    "metric",
    "connection",
    "tau",
    "alpha",
    "potential",
    "beta",
    "magnetic",
    "points",
    "truncation",
}

# geometry errors raised by the container, mapped back to file fields
_GEOMETRY_PATHS = (
    ("g_inv and g_low", "metric_inv"),
    ("g_inv", "metric_inv"),
    ("g_low", "metric"),
    ("omega", "connection"),
    ("tau", "tau"),
    ("alpha", "alpha"),
    ("potential", "potential"),
    ("magnetic", "magnetic"),
    ("twist", "magnetic"),
    ("beta", "beta"),
)


class ProblemError(ValueError):
    """Validation failure pointing at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class Truncation:
    def __init__(self, x_degree: int = 2, p_degree: int = 1, slack: int = 2):
        self.x_degree = x_degree
        self.p_degree = p_degree
        self.slack = slack

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Truncation):
            return NotImplemented
        return (self.x_degree, self.p_degree, self.slack) == (
            other.x_degree,
            other.p_degree,
            other.slack,
        )

    __hash__ = None


class Problem:
    """A validated problem file.

    `raw` is the source document as compact JSON text, so no caller can
    alter it; `document()` decodes a fresh copy.
    """

    def __init__(
        self,
        data: Algebroid,
        pack: GeometryPack,
        points: tuple[tuple[Rat, ...], ...],
        truncation: Truncation,
        raw: str,
    ):
        self.data = data
        self.pack = pack
        self.points = points
        self.truncation = truncation
        self.raw = raw

    @property
    def coords(self) -> tuple[str, ...]:
        return self.data.coords

    @property
    def base_dim(self) -> int:
        return self.data.base_dim

    @property
    def rank(self) -> int:
        return self.data.rank

    def document(self) -> dict:
        """A fresh copy of the source document, for emission."""
        return json.loads(self.raw)


def load_problem(path: str | os.PathLike) -> Problem:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ProblemError("$", str(error)) from error
    except UnicodeDecodeError as error:
        raise ProblemError("$", f"not valid UTF-8: {error}") from error
    try:
        doc = json.loads(text)
    except ValueError as error:  # also a number past the int() digit limit
        raise ProblemError("$", f"not valid JSON: {error}") from error
    return problem_from_dict(doc)


def problem_from_dict(doc: object) -> Problem:
    if not isinstance(doc, dict):
        raise ProblemError("$", "the problem file must be a JSON object")
    for name in sorted(doc):
        if name not in _KNOWN_FIELDS:
            raise ProblemError(name, "unknown field")

    base_dim = _positive_int(doc, "base_dim")
    rank = _positive_int(doc, "rank")
    coords = _coords(doc, base_dim)

    anchor = _expr_matrix(
        _required(doc, "anchor"), rank, base_dim, coords, "anchor"
    )
    structure = _structure(doc.get("structure"), rank, coords)
    try:
        data = algebroid_from_lists(coords, anchor, structure)
    except ValueError as error:
        raise ProblemError("structure", str(error)) from error

    magnetic = _optional_matrix(doc, "magnetic", base_dim, coords)
    alpha = (
        _expr_list(doc["alpha"], rank, coords, "alpha") if "alpha" in doc else None
    )
    g_inv = _optional_matrix(doc, "metric_inv", base_dim, coords)
    g_low = _optional_matrix(doc, "metric", base_dim, coords)
    omega = _optional_cube(doc, "connection", rank, base_dim, coords)
    tau = _optional_matrix(doc, "tau", rank, coords)
    potential = (
        _parse_entry(doc["potential"], coords, "potential")
        if "potential" in doc
        else None
    )
    beta = (
        tuple(_expr_list(doc["beta"], base_dim, coords, "beta"))
        if "beta" in doc
        else None
    )
    try:
        pack = GeometryPack(
            coords,
            rank,
            g_inv=g_inv,
            g_low=g_low,
            omega=omega,
            tau=tau,
            alpha=alpha,
            potential=potential,
            magnetic=magnetic,
            beta=beta,
        )
    except ProblemError:
        raise
    except ValueError as error:
        path = _geometry_path(str(error))
        # a message that already names its field is not prefixed twice
        message = str(error).removeprefix(f"{path}: ")
        raise ProblemError(path, message) from error

    return Problem(
        data,
        pack,
        _points(doc.get("points"), base_dim),
        _truncation(doc.get("truncation")),
        json.dumps(doc, separators=(",", ":")),
    )


def connection_strings(
    omega: tuple[tuple[tuple[EvenPoly, ...], ...], ...]
) -> list[list[list[str]]]:
    """Connection entries as grammar strings, for writing problem files."""
    return [[[str(entry) for entry in row] for row in plane] for plane in omega]


# field readers


def _required(doc: dict, name: str) -> object:
    if name not in doc:
        raise ProblemError(name, "required field is missing")
    return doc[name]


def _positive_int(doc: dict, name: str) -> int:
    value = _required(doc, name)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ProblemError(name, "must be a positive integer")
    return value


def _coords(doc: dict, base_dim: int) -> tuple[str, ...]:
    value = _required(doc, "coords")
    if not isinstance(value, list) or len(value) != base_dim:
        raise ProblemError("coords", f"must list exactly {base_dim} names")
    seen = set()
    for k, name in enumerate(value):
        path = f"coords[{k + 1}]"
        if not isinstance(name, str) or not _NAME.match(name):
            raise ProblemError(path, "coordinate names must be identifiers")
        if name == "theta":
            raise ProblemError(path, "'theta' is reserved for the expansion")
        for prefix in _RESERVED_PREFIXES:
            if name.startswith(prefix):
                raise ProblemError(
                    path,
                    f"the prefix {prefix!r} is reserved for generated "
                    "coordinates",
                )
        for suffix in _RESERVED_SUFFIXES:
            if name.endswith(suffix):
                raise ProblemError(
                    path,
                    f"the suffix {suffix!r} is reserved for generated "
                    "coordinates",
                )
        if name in seen:
            raise ProblemError(path, f"duplicate coordinate {name!r}")
        seen.add(name)
    return tuple(value)


def _parse_entry(value: object, coords: tuple[str, ...], path: str) -> EvenPoly:
    if isinstance(value, float) and not isinstance(value, bool):
        raise ProblemError(
            path, "decimal literals are not exact; write a ratio like 1/2"
        )
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ProblemError(path, "expressions must be strings or integers")
    if isinstance(value, int):
        return EvenPoly.const(coords, value)
    # most entries of a dense table are plain integers: skip the tokenizer
    literal = value.strip()
    if _INT_LITERAL.fullmatch(literal):
        try:
            return EvenPoly.const(coords, int(literal))
        except ValueError:
            pass  # past int()'s digit limit: the parser reports it with a position
    try:
        return parse_poly(value, coords)
    except ParseError as error:
        raise ProblemError(path, str(error)) from error


def _expr_list(
    value: object, length: int, coords: tuple[str, ...], path: str
) -> list[EvenPoly]:
    if not isinstance(value, list) or len(value) != length:
        raise ProblemError(path, f"must list exactly {length} expressions")
    return [
        _parse_entry(entry, coords, f"{path}[{k + 1}]")
        for k, entry in enumerate(value)
    ]


def _expr_matrix(
    value: object, nrows: int, ncols: int, coords: tuple[str, ...], path: str
) -> list[list[EvenPoly]]:
    if not isinstance(value, list) or len(value) != nrows:
        raise ProblemError(path, f"must have {nrows} rows")
    return [
        _expr_list(row, ncols, coords, f"{path}[{k + 1}]")
        for k, row in enumerate(value)
    ]


def _optional_matrix(doc: dict, name: str, size: int, coords):
    if name not in doc:
        return None
    return _expr_matrix(doc[name], size, size, coords, name)


def _optional_cube(doc: dict, name: str, rank: int, base_dim: int, coords):
    if name not in doc:
        return None
    value = doc[name]
    if not isinstance(value, list) or len(value) != rank:
        raise ProblemError(name, f"must have {rank} planes")
    return [
        _expr_matrix(plane, rank, base_dim, coords, f"{name}[{a + 1}]")
        for a, plane in enumerate(value)
    ]


_SPARSE_KEY = re.compile(r"([0-9]+),([0-9]+),([0-9]+)\Z")


def _structure(
    value: object, rank: int, coords: tuple[str, ...]
) -> list[list[EvenPoly]]:
    zero = EvenPoly.zero(coords)
    if value is None:
        return [[[zero] * rank for _ in range(rank)] for _ in range(rank)]
    if isinstance(value, dict):
        return _structure_from_sparse(value, rank, coords, zero)
    if not isinstance(value, list) or len(value) != rank:
        raise ProblemError(
            "structure", f"must have {rank} planes or be a sparse object"
        )
    return [
        _expr_matrix(plane, rank, rank, coords, f"structure[{c + 1}]")
        for c, plane in enumerate(value)
    ]


def _structure_from_sparse(
    mapping: dict, rank: int, coords: tuple[str, ...], zero: EvenPoly
) -> list[list[EvenPoly]]:
    grid: list[list[list[EvenPoly | None]]] = [
        [[None] * rank for _ in range(rank)] for _ in range(rank)
    ]
    stated: set[tuple[int, int, int]] = set()
    for key in sorted(mapping):
        path = f"structure[{key!r}]"
        match = _SPARSE_KEY.match(key) if isinstance(key, str) else None
        if match is None:
            raise ProblemError(path, "sparse keys have the form 'c,a,b'")
        c, a, b = (int(match.group(k)) - 1 for k in (1, 2, 3))
        if not all(0 <= idx < rank for idx in (c, a, b)):
            raise ProblemError(path, f"indices are 1-based up to the rank {rank}")
        entry = _parse_entry(mapping[key], coords, path)
        if a == b:
            if not entry.is_zero:
                raise ProblemError(path, "diagonal entries vanish identically")
            continue
        mirror = grid[c][b][a]
        if (c, b, a) in stated and mirror is not None:
            if not (mirror + entry).is_zero:
                raise ProblemError(
                    path,
                    f"inconsistent with 'structure[{c + 1},{b + 1},{a + 1}]': "
                    "antisymmetric images must negate exactly",
                )
        grid[c][a][b] = entry
        if (c, b, a) not in stated:
            grid[c][b][a] = -entry
        stated.add((c, a, b))
    return [
        [
            [entry if entry is not None else zero for entry in row]
            for row in plane
        ]
        for plane in grid
    ]


def _points(
    value: object, base_dim: int
) -> tuple[tuple[Rat, ...], ...]:
    if value is None:
        return ()
    if not isinstance(value, list):
        raise ProblemError("points", "must be a list of coordinate vectors")
    points = []
    for k, vector in enumerate(value):
        path = f"points[{k + 1}]"
        if not isinstance(vector, list) or len(vector) != base_dim:
            raise ProblemError(path, f"must list exactly {base_dim} values")
        entries = []
        for i, entry in enumerate(vector):
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise ProblemError(
                    f"{path}[{i + 1}]", "rationals are integers or 'a/b' strings"
                )
            try:
                entries.append(
                    Fraction(entry)
                    if isinstance(entry, int)
                    else rational_from_string(entry)
                )
            except (ValueError, ZeroDivisionError) as error:
                raise ProblemError(f"{path}[{i + 1}]", str(error)) from error
        points.append(tuple(entries))
    return tuple(points)


def _truncation(value: object) -> Truncation:
    if value is None:
        return Truncation()
    if not isinstance(value, dict):
        raise ProblemError("truncation", "must be an object of degree bounds")
    known = {"x_degree", "p_degree", "slack"}
    for name in sorted(value):
        if name not in known:
            raise ProblemError(f"truncation.{name}", "unknown field")
        entry = value[name]
        if isinstance(entry, bool) or not isinstance(entry, int) or entry < 0:
            raise ProblemError(
                f"truncation.{name}", "must be a nonnegative integer"
            )
    return Truncation(**value)


def _geometry_path(message: str) -> str:
    for prefix, path in _GEOMETRY_PATHS:
        if message.startswith(prefix):
            return path
    return "geometry"
