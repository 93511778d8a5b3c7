"""Command line front end with JSON output.

Every subcommand prints exactly one JSON document to standard output and
exits 0 on success, 2 on usage errors, 3 on domain errors, and 4 when a
theorem violation fires.  Error documents carry a machine readable
``reason`` so scripts never parse prose.  Output is byte-identical across
repeated runs with the same arguments and seed: no timestamps, sorted
keys, deterministic orderings throughout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .acceptance import DEFAULT_SEED, SCHEMA_VERSION, rational_nilpotent_witness, run_all
from .algebra import cartan_elements, element_from_json, generated_subalgebra, is_rational
from .cmfield import (
    Orientation,
    field_from_json,
    field_to_json,
    orientation_picks,
    oriented_to_json,
    validate_orientation,
)
from .errors import CMHodgeError, UsageError
from .graphs import is_block_system, support_graph
from .verifiers import escape_verdict, nondegeneracy_verdict, rigidity_verdict


def _read_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise UsageError(f"file not found: {path}", reason="missing-file")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}", reason="unreadable-file")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}", reason="bad-json")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}", reason="bad-json")


def _parse_inline_or_file(text):
    """Inline JSON when the argument looks like an object, else a file path."""
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"inline JSON is invalid: {exc}", reason="bad-json")
    return _read_json_file(text)


def _load_galois(args):
    if getattr(args, "conductor", None) is not None:
        return field_from_json({"flavor": "cyclotomic", "conductor": args.conductor})
    if getattr(args, "abstract_file", None):
        return field_from_json(_read_json_file(args.abstract_file))
    raise UsageError("give either --conductor or --abstract-file")


def _load_oriented(args):
    galois = _load_galois(args)
    obj = _parse_inline_or_file(args.orientation)
    if not isinstance(obj, dict):
        raise UsageError("the orientation must be a JSON object", reason="bad-orientation")
    if "weight" not in obj:
        if args.weight is None:
            raise UsageError("give --weight or include 'weight' in the orientation")
        obj = dict(obj, weight=args.weight)
    elif args.weight is not None and args.weight != obj["weight"]:
        raise UsageError(
            f"--weight {args.weight} contradicts the orientation's weight {obj['weight']}"
        )
    orientation = Orientation.from_json(obj, labels=galois.labels)
    return validate_orientation(galois, orientation)


def _parse_hodge(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--hodge wants a comma list of integers, got {text!r}")


# The JSON kinds _json_text writes; a subclass is mapped to one by _json_kind.
_JSON_KINDS = frozenset({str, int, bool, type(None), list, tuple, dict})


def _json_kind(obj):
    """The kind json's encoder treats ``obj`` as, tested in json's own order."""
    if isinstance(obj, str):
        return str
    if obj is None:
        return type(None)
    if obj is True or obj is False:
        return bool
    if isinstance(obj, int):
        return int
    if isinstance(obj, (list, tuple)):
        return list
    if isinstance(obj, dict):
        return dict
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_key(key):
    """A dict key as json stringifies it."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is True or key is False or key is None:
        return '"' + _json_text(key) + '"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, bool or None, not {type(key).__name__}")


def _json_text(obj, indent="\n"):
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, on cmhodge's JSON subset.

    The subset is dict, list, tuple, str, int, bool and None; anything else
    raises ``TypeError`` as json does.  With ``indent`` set, json never
    reaches its C encoder; this writer does the same work with one string
    join per container, so no chunk list of the whole document is built.
    Dict items are sorted by their original keys, then the keys are
    stringified, as json does.
    """
    kind = type(obj)
    if kind not in _JSON_KINDS:
        kind = _json_kind(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if not obj:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    if kind is dict:
        items = [_json_key(key) + ": " + _json_text(value, inner) for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    # int items inline: int vectors, such as nondeg's grading and orbit vectors, are most lists
    items = [int.__repr__(value) if type(value) is int else _json_text(value, inner) for value in obj]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _json_pieces(obj, indent, pieces):
    """Append ``_json_text(obj, indent)`` to ``pieces``, a dict key by key.

    An ``_OrientationListing`` appends its fragments, so ``_emit``'s one join
    is the only copy of a listing's text, not one copy per enclosing container.
    """
    kind = type(obj)
    if kind is _OrientationListing:
        obj.json_pieces(indent, pieces)
    elif kind is dict and obj:
        inner = indent + "  "
        head = "{" + inner
        for key, value in sorted(obj.items()):
            pieces.append(head + _json_key(key) + ": ")
            _json_pieces(value, inner, pieces)
            head = "," + inner
        pieces.append(indent + "}")
    else:
        pieces.append(_json_text(obj, indent))


class _OrientationListing:
    """The orientations of ``orient enumerate``, held as the picks of ``orientation_picks``.

    ``_json_pieces`` writes it as ``_json_text`` would write the list of the
    orientations' ``to_json`` dicts.  Pick t of a pair fixes the items of its
    two labels, ``"a": [w - t, t]`` and ``"-a": [t, w - t]``, so each label's
    item is rendered once for each t, at the listing's indent, and an
    orientation is its labels' items in the sorted order of their ``str``
    forms (which ``GaloisCMData`` keeps distinct).  The items themselves are
    the pieces, so no per-orientation text is built.
    """

    def __init__(self, weight, pairs, picks):
        self.weight, self.pairs, self.picks = weight, pairs, picks

    def json_pieces(self, indent, pieces):
        w = self.weight
        in_list = indent + "  "  # an orientation
        in_orientation = in_list + "  "  # "assignment" and "weight"
        in_assignment = in_orientation + "  "  # one label's item
        in_pair = in_assignment + "  "  # p and q
        labels = sorted((str(label), k, side) for k, pair in enumerate(self.pairs)
                        for side, label in enumerate(pair))
        slots = []  # (pair index, the label's item for t = 0..w, its separator first)
        for n, (key, k, side) in enumerate(labels):
            head = ("," + in_assignment if n else "") + _json_key(key) + ": [" + in_pair
            items = []
            for t in range(w + 1):
                p, q = (w - t, t) if side == 0 else (t, w - t)
                items.append(f"{head}{p},{in_pair}{q}{in_assignment}]")
            slots.append((k, items))
        head = "{" + in_orientation + '"assignment": {' + in_assignment
        tail = in_orientation + "}," + in_orientation + f'"weight": {w}' + in_list + "}"
        opening, between = "[" + in_list + head, tail + "," + in_list + head
        for pick in self.picks:
            pieces.append(opening)
            pieces += [items[pick[k]] for k, items in slots]
            opening = between
        pieces.append(tail + indent + "]")


def _emit(payload, args):
    """Write the document to --output, if given, then to stdout.

    The file comes first, so an unwritable path raises ``UsageError`` before
    stdout holds anything.
    """
    pieces = []
    _json_pieces(payload, "\n", pieces)
    pieces.append("\n")
    text = "".join(pieces)
    out_path = args.output
    if out_path:
        base = os.environ.get("CMHODGE_OUTPUT_DIR", "")
        if base and not os.path.isabs(out_path):
            out_path = os.path.join(base, out_path)
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror}", reason="unwritable-output")
    sys.stdout.write(text)


def _envelope(command, result):
    return {"schema_version": SCHEMA_VERSION, "command": command, "result": result}


# -- subcommand bodies --------------------------------------------------


def _cmd_field(args):
    galois = _load_galois(args)
    return _envelope(
        "field",
        {
            "field": field_to_json(galois),
            "embeddings": len(galois.labels),
            "pairs": len(galois.labels) // 2,
            "group_order": galois.group_order,
        },
    )


def _cmd_orient_enumerate(args):
    galois = _load_galois(args)
    hodge = _parse_hodge(args.hodge)
    pairs, picks = orientation_picks(galois, args.weight, hodge)
    listing = _OrientationListing(args.weight, pairs, list(picks))
    return _envelope(
        "orient-enumerate",
        {
            "count": len(listing.picks),
            "weight": args.weight,
            "hodge_numbers": list(hodge),
            "orientations": listing,
        },
    )


def _cmd_grading(args):
    field = _load_oriented(args)
    return _envelope(
        "grading",
        {
            "field": oriented_to_json(field),
            "grading": {"pair_values": {str(k): field.grading_value(k) for k in range(1, field.n + 1)}},
        },
    )


def _cmd_nondeg(args):
    field = _load_oriented(args)
    return _envelope("nondeg", nondegeneracy_verdict(field))


def _cmd_partition(args):
    element = element_from_json(_read_json_file(args.element))
    field = element.field
    graph, partition = support_graph(element)
    return _envelope(
        "partition",
        {
            "rational": is_rational(field, element),
            "support_graph": graph,
            "partition": partition,
            "block_verdict": is_block_system(field, partition),
        },
    )


def _cmd_closure(args):
    elements = [element_from_json(_read_json_file(path)) for path in args.element]
    field = elements[0].field
    seeds = list(elements)
    if args.with_cartan:
        seeds = cartan_elements(field) + seeds
    dim, basis = generated_subalgebra(seeds)
    n = field.n
    return _envelope(
        "closure",
        {
            "seeds": len(seeds),
            "dimension": dim,
            "ambient_dimension": n * (2 * n + 1),
            "basis_supports": [[list(ij) for ij in b.support()] for b in basis],
        },
    )


def _cmd_escape(args):
    if args.element:
        given = [
            flag
            for flag, value in (
                ("--conductor", args.conductor),
                ("--abstract-file", args.abstract_file),
                ("--weight", args.weight),
                ("--orientation", args.orientation),
            )
            if value is not None
        ]
        if given:
            raise UsageError(
                f"--element carries its own field; drop {', '.join(given)}",
                reason="element-excludes-field-flags",
            )
        element = element_from_json(_read_json_file(args.element))
        field = element.field
    else:
        if not args.orientation:
            raise UsageError("escape needs --element, or field flags plus --orientation")
        field = _load_oriented(args)
        element = rational_nilpotent_witness(field)
    return _envelope("escape", escape_verdict(field, element))


def _cmd_rigidity(args):
    field = _load_oriented(args)
    return _envelope("rigidity", rigidity_verdict(field))


def _cmd_selftest(args):
    return run_all(args.seed)


# -- wiring -------------------------------------------------------------


def _add_field_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--conductor", type=int, help="cyclotomic conductor m")
    group.add_argument(
        "--abstract-file", help="JSON file describing an abstract CM field"
    )


def _add_orientation_args(sub):
    _add_field_args(sub)
    sub.add_argument("--weight", type=int, help="odd weight n")
    sub.add_argument(
        "--orientation",
        required=True,
        help="orientation as inline JSON or a file path",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cmhodge",
        description="exact verification of oriented CM Hodge structure claims",
    )
    parser.add_argument(
        "--output",
        help="also write the JSON document to this file "
        "(relative paths resolve under $CMHODGE_OUTPUT_DIR)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("field", help="describe a CM field")
    _add_field_args(sub)
    sub.set_defaults(fn=_cmd_field)

    orient = commands.add_parser("orient", help="orientation tooling")
    orient_sub = orient.add_subparsers(dest="orient_command", required=True)
    sub = orient_sub.add_parser("enumerate", help="list all orientations")
    _add_field_args(sub)
    sub.add_argument("--weight", type=int, required=True)
    sub.add_argument("--hodge", required=True, help="comma list, e.g. 1,2,2,1")
    sub.set_defaults(fn=_cmd_orient_enumerate)

    sub = commands.add_parser("grading", help="emit the grading vector")
    _add_orientation_args(sub)
    sub.set_defaults(fn=_cmd_grading)

    sub = commands.add_parser("nondeg", help="orbit-rank nondegeneracy report")
    _add_orientation_args(sub)
    sub.set_defaults(fn=_cmd_nondeg)

    sub = commands.add_parser(
        "partition", help="support graph, partition and block verdict of an element"
    )
    sub.add_argument("--element", required=True, help="element JSON file")
    sub.set_defaults(fn=_cmd_partition)

    sub = commands.add_parser(
        "closure", help="dimension of the bracket closure of seed elements"
    )
    sub.add_argument(
        "--element",
        action="append",
        required=True,
        help="element JSON file (repeatable)",
    )
    sub.add_argument(
        "--with-cartan",
        action="store_true",
        help="also seed with the diagonal basis elements",
    )
    sub.set_defaults(fn=_cmd_closure)

    sub = commands.add_parser("escape", help="deep-nilpotent escape verdict")
    group = sub.add_mutually_exclusive_group(required=False)
    group.add_argument("--element", help="element JSON file with the nilpotent")
    sub.add_argument("--conductor", type=int, help="cyclotomic conductor m")
    sub.add_argument("--abstract-file", help="abstract CM field JSON file")
    sub.add_argument("--weight", type=int)
    sub.add_argument(
        "--orientation", help="orientation (used when no --element is given)"
    )
    sub.set_defaults(fn=_cmd_escape)

    sub = commands.add_parser("rigidity", help="horizontal rigidity verdict")
    _add_orientation_args(sub)
    sub.set_defaults(fn=_cmd_rigidity)

    sub = commands.add_parser("selftest", help="run the full acceptance suite")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.set_defaults(fn=_cmd_selftest)

    return parser


@functools.cache
def _parser():
    """The one parser of this process; ``parse_args`` keeps no state between calls."""
    return build_parser()


def _error_document(exc):
    return {"schema_version": SCHEMA_VERSION, "error": {"reason": exc.reason, "message": str(exc)}}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        payload, code = args.fn(args), 0
    except CMHodgeError as exc:
        payload, code = _error_document(exc), exc.exit_code
    try:
        _emit(payload, args)
    except UsageError as exc:  # --output cannot be written; report that on stdout alone
        args.output = None
        _emit(_error_document(exc), args)
        return exc.exit_code
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    sys.exit(main())
