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
    tau         [rank][rank] expressions               (tau^a_b)
    alpha       [rank] expressions
    potential   expression
    beta        [base_dim] expressions
    magnetic    [n][n] expressions, antisymmetric      (B_ij)
    points      list of [base_dim] rationals (ints or "a/b")

Any other top-level field is refused as unknown.  A key stated twice is
refused, and so is null for an optional field.  The cohomology windows
are set on the command line alone (`--trunc`, `--p-degree`, `--slack`).

The optional expression fields are read after the anchor and the
structure, in the order of `_EXPRESSIONS`, so an error of an earlier field
is the one reported.  A literal "0" entry of a dense list is not parsed,
nor an innermost row of them; the connection and tau are stored only as
the indexes of their nonzero entries (`GeometryPack`).
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import cached_property

from .algebroid import Algebroid
from .bfv import BFVPackage, assemble_bfv
from .constraints import ConstraintSet
from .dynamics import GeometryPack, StructuralResiduals, structural_residuals
from .graded import THETA
from .parser import ParseError, parse_poly, rational_from_string
from .poly import EvenPoly, Rat

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
INT_LITERAL = re.compile(r"[+-]?[0-9]+")  # ASCII digits, as the parser
_RESERVED_PREFIXES = ("p_", "xi_", "pi_", "lam_")
_RESERVED_SUFFIXES = ("_odd", "_dot")

# the optional expression fields in reading order, each by its shape in the
# base dimension n and the rank r; the connection and tau are kept as the
# indexes of their nonzero entries, and a shape of no axes is one expression
_EXPRESSIONS = {
    "magnetic": "nn",
    "alpha": "r",
    "metric_inv": "nn",
    "metric": "nn",
    "connection": "rrn",
    "tau": "rr",
    "potential": "",
    "beta": "n",
}
_INDEXED = ("connection", "tau")

_KNOWN_FIELDS = {
    *("base_dim", "rank", "coords", "anchor", "structure", "points"),
    *_EXPRESSIONS,
}

# the file field of each `GeometryPack` attribute a message may name: the
# front end names missing fields by it, and the loader maps a geometry
# error back to its field by the prefix of the message ("g_inv and g_low
# ..." reads as metric_inv)
GEOMETRY_FIELDS = {
    "g_inv": "metric_inv",
    "g_low": "metric",
    "omega": "connection",
}


class ProblemError(ValueError):
    """Validation failure pointing at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class Problem:
    """A validated problem file.

    `constraints` holds the frame data with alpha and the magnetic field,
    and `pack` the fields of the Hamiltonian.  What joins the two, the BFV
    `package` and the structural residual `families`, is built on first
    use and kept, so a verb that reads neither builds neither.  `document`
    is the mapping the problem was built from, which `solve-connection
    --write` copies; like every record it is not altered after construction.
    """

    def __init__(
        self,
        constraints: ConstraintSet,
        pack: GeometryPack,
        points: tuple[tuple[Rat, ...], ...],
        document: dict,
    ):
        self.constraints = constraints
        self.pack = pack
        self.points = points
        self.document = document

    @property
    def data(self) -> Algebroid:
        return self.constraints.data

    @cached_property
    def package(self) -> tuple[BFVPackage | None, str | None]:
        """The assembled BFV package, or None and the input it lacks."""
        try:
            return assemble_bfv(self.constraints, self.pack), None
        except ValueError as error:
            return None, str(error)

    @cached_property
    def families(self) -> StructuralResiduals:
        """The structural residuals; the pack must hold g_low and omega."""
        return structural_residuals(self.constraints, self.pack)


def load_problem(path: str | os.PathLike) -> Problem:
    """The problem in a file, read once as UTF-8; its `document` is the
    decoded dict.

    Line ends are translated as text mode does, and only when a carriage
    return occurs, so JSON errors report the lines and columns of the text.
    A key stated twice in the document or in a sparse structure is refused,
    where JSON would keep its last value.
    """
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except OSError as error:
        raise ProblemError("$", str(error)) from error
    except UnicodeDecodeError as error:
        raise ProblemError("$", f"not valid UTF-8: {error}") from error
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            message = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
            raise json.JSONDecodeError(message, text, 0)
        doc = _DECODER.decode(text)
    # also a number past the int() digit limit or nesting past the recursion limit
    except (ValueError, RecursionError) as error:
        raise ProblemError("$", f"not valid JSON: {error}") from error
    if isinstance(doc, dict):
        # the schema's objects; the reader of any other field refuses an object
        repeated = "repeated key: JSON would keep only its last value"
        if isinstance(doc, _RepeatedKey):
            raise ProblemError(doc.key, repeated)
        structure = doc.get("structure")
        if isinstance(structure, _RepeatedKey):
            raise ProblemError(f"structure[{structure.key!r}]", repeated)
    return problem_from_dict(doc)


class _RepeatedKey(dict):
    """A decoded object that states `key`, its first repeated key, twice."""

    def __init__(self, pairs: list[tuple[str, object]], key: str):
        super().__init__(pairs)
        self.key = key


def _decoded_object(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object, marked if it states a key twice."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                return _RepeatedKey(pairs, key)
            seen.add(key)
    return doc


# made once: `json.loads` with a hook makes a decoder per call, which costs
# a fresh process about a third of decoding a problem file
_DECODER = json.JSONDecoder(object_pairs_hook=_decoded_object)


def problem_from_dict(doc: object) -> Problem:
    """The problem of a decoded document, which it keeps as `document`."""
    if not isinstance(doc, dict):
        raise ProblemError("$", "the problem file must be a JSON object")
    for name in sorted(doc):
        if name not in _KNOWN_FIELDS:
            raise ProblemError(name, "unknown field")

    base_dim = _positive_int(doc, "base_dim")
    rank = _positive_int(doc, "rank")
    coords = _coords(doc, base_dim)

    sizes = {"n": base_dim, "r": rank}
    data = Algebroid(
        coords,
        _expression(_required(doc, "anchor"), "anchor", "rn", sizes, coords),
        _structure(doc["structure"], rank, coords) if "structure" in doc else {},
    )
    read = {
        name: _expression(doc[name], name, shape, sizes, coords)
        for name, shape in _EXPRESSIONS.items()
        if name in doc
    }
    # alpha and B have their shapes: only the antisymmetry of B can fail
    try:
        constraints = ConstraintSet(data, read.get("alpha"), read.get("magnetic"))
    except ValueError as error:
        raise ProblemError("magnetic", "matrix must be antisymmetric") from error
    try:
        pack = GeometryPack(
            coords,
            rank,
            g_inv=read.get("metric_inv"),
            g_low=read.get("metric"),
            omega=read.get("connection"),
            tau=read.get("tau"),
            potential=read.get("potential"),
            beta=read.get("beta"),
        )
    except ValueError as error:
        raise ProblemError(_geometry_path(str(error)), str(error)) from error

    return Problem(
        constraints,
        pack,
        _points(doc["points"], base_dim) if "points" in doc else (),
        doc,
    )


def connection_strings(
    omega: dict[tuple[int, int, int], EvenPoly], rank: int, base_dim: int
) -> list[list[list[str]]]:
    """The dense connection list of grammar strings, for writing problem files."""
    strings = {key: str(entry) for key, entry in omega.items()}
    return _dense(strings, (rank, rank, base_dim), "0", list)


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
        if name == THETA:
            raise ProblemError(path, f"{THETA!r} is reserved for the expansion")
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
    if INT_LITERAL.fullmatch(literal):
        try:
            return EvenPoly.const(coords, int(literal))
        except ValueError:
            pass  # past int()'s digit limit: the parser reports it with a position
    try:
        return parse_poly(value, coords)
    except ParseError as error:
        raise ProblemError(path, str(error)) from error


def _expression(
    value: object, name: str, axes: str, sizes: dict, coords: tuple[str, ...]
):
    """The field `name` of shape `axes`, as its record takes it."""
    if not axes:
        return _parse_entry(value, coords, name)
    shape = tuple(sizes[axis] for axis in axes)
    entries = _dense_index(value, shape, coords, name)
    if name in _INDEXED:
        return entries
    return _dense(entries, shape, EvenPoly.zero(coords), tuple)


def _dense(entries: dict, shape: tuple[int, ...], zero, build, index=()):
    """The nested lists, each made by `build`, of a shape holding the entries
    by 0-based index and `zero` elsewhere; an innermost row is one
    comprehension."""
    length, inner = shape[0], shape[1:]
    if not inner:
        return build([entries.get(index + (k,), zero) for k in range(length)])
    return build(
        [_dense(entries, inner, zero, build, index + (k,)) for k in range(length)]
    )


# the shape error of a dense list, by the number of its dimensions
_DENSE_SHAPES = {
    1: "must list exactly {} expressions",
    2: "must have {} rows",
    3: "must have {} planes",
}


def _dense_index(
    value: object,
    shape: tuple[int, ...],
    coords: tuple[str, ...],
    path: str,
    index: tuple[int, ...] = (),
) -> dict:
    """The entries of a dense list of this shape but its literal "0"s, by index.

    Indices are 0-based; a "0" is skipped before the parser.  Of the shape
    and parse errors, the first in reading order is raised.
    """
    length, inner = shape[0], shape[1:]
    if not isinstance(value, list) or len(value) != length:
        raise ProblemError(path, _DENSE_SHAPES[len(shape)].format(length))
    entries = {}
    for k, entry in enumerate(value):
        if len(inner) == 1 and isinstance(entry, list):
            if entry.count("0") == len(entry) == inner[0]:
                continue  # a full innermost row of "0"s: no entry and no error
        if inner:
            at = f"{path}[{k + 1}]"
            entries.update(_dense_index(entry, inner, coords, at, index + (k,)))
        elif entry != "0":
            entries[index + (k,)] = _parse_entry(entry, coords, f"{path}[{k + 1}]")
    return entries


_SPARSE_KEY = re.compile(r"([0-9]+),([0-9]+),([0-9]+)\Z")

Structure = dict[tuple[int, int, int], EvenPoly]


def _structure(value: object, rank: int, coords: tuple[str, ...]) -> Structure:
    """C^c_ab as {(c, a, b): C} over a < b, the shape `Algebroid` takes."""
    if isinstance(value, dict):
        return _structure_from_sparse(value, rank, coords)
    if not isinstance(value, list) or len(value) != rank:
        raise ProblemError(
            "structure", f"must have {rank} planes or be a sparse object"
        )
    stated = _dense_index(value, (rank, rank, rank), coords, "structure")
    # the first violation in c, a, b order has a <= b, as the pair (b, a)
    # fails with (a, b); a nonzero diagonal entry fails as its own mirror
    zero = EvenPoly.zero(coords)
    structure: Structure = {}
    for c, a, b in sorted({(c, min(a, b), max(a, b)) for c, a, b in stated}):
        entry = stated.get((c, a, b), zero)
        if not (entry + stated.get((c, b, a), zero)).is_zero:
            raise ProblemError(
                "structure",
                f"structure functions must be antisymmetric, "
                f"violated at c={c + 1}, a={a + 1}, b={b + 1}",
            )
        if a < b:  # not a diagonal entry that reads zero, such as "0/2"
            structure[(c, a, b)] = entry
    return structure


def _structure_from_sparse(
    mapping: dict, rank: int, coords: tuple[str, ...]
) -> Structure:
    stated: Structure = {}  # the entry stated for each index triple, as written
    keys: dict[tuple[int, int, int], str] = {}  # the key that stated it
    for key in sorted(mapping):
        path = f"structure[{key!r}]"
        match = _SPARSE_KEY.match(key) if isinstance(key, str) else None
        if match is None:
            raise ProblemError(path, "sparse keys have the form 'c,a,b'")
        c, a, b = (int(match.group(k)) - 1 for k in (1, 2, 3))
        if not all(0 <= idx < rank for idx in (c, a, b)):
            raise ProblemError(path, f"indices are 1-based up to the rank {rank}")
        if (c, a, b) in keys:
            raise ProblemError(
                path, f"restates the entry of key {keys[(c, a, b)]!r}"
            )
        keys[(c, a, b)] = key
        entry = _parse_entry(mapping[key], coords, path)
        if a == b:
            if not entry.is_zero:
                raise ProblemError(path, "diagonal entries vanish identically")
            continue
        mirror = stated.get((c, b, a))
        if mirror is not None and not (mirror + entry).is_zero:
            raise ProblemError(
                path,
                f"inconsistent with 'structure[{c + 1},{b + 1},{a + 1}]': "
                "antisymmetric images must negate exactly",
            )
        stated[(c, a, b)] = entry
    # a pair stated both ways agrees, so the a < b entry is either one
    return {
        (c, min(a, b), max(a, b)): entry if a < b else -entry
        for (c, a, b), entry in stated.items()
        if a < b or (c, b, a) not in stated
    }


def _points(
    value: object, base_dim: int
) -> tuple[tuple[Rat, ...], ...]:
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


def _geometry_path(message: str) -> str:
    for prefix, path in GEOMETRY_FIELDS.items():
        if message.startswith(prefix):
            return path
    return "geometry"
