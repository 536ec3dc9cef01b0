"""Command-line front end: basis enumeration, Poincare tables, hom spaces,
verification suites, and JSON import/export of comodules.

Exit codes: 0 success (all checks pass), 1 verification or load failure,
2 usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import json
import os
import sys

from .bialgebra import PRESET_NAMES, format_monomial, get_preset
from .bialgebra import enumerate_box, enumerate_component, enumerate_left
from .comodule import Comodule
from .homsolver import hom_space
from .objects import parse_object_id
from .verify import SUITES, run_all

DEFAULT_P = 3
DEFAULT_BOX = 60


def _env_int(name: str):
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} is not an integer: {raw!r}")


def resolve_p(args) -> int:
    if args.p is not None:
        return args.p
    env = _env_int("SUPERCOMOD_P")
    return DEFAULT_P if env is None else env


def _max_degree(args):
    """--max-degree, else SUPERCOMOD_MAX_DEGREE, else None."""
    box = args.max_degree
    if box is None:
        box = _env_int("SUPERCOMOD_MAX_DEGREE")
    _check_nonnegative(box, "--max-degree (or SUPERCOMOD_MAX_DEGREE)")
    return box


def resolve_box(args) -> int:
    box = _max_degree(args)
    return DEFAULT_BOX if box is None else box


def _check_nonnegative(value, flag: str) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")


def parse_degree(text: str):
    """Either a single integer degree or a pair 'a,b'."""
    try:
        degree = tuple(int(part) for part in text.split(","))
    except ValueError:
        degree = ()
    if len(degree) not in (1, 2):
        raise ValueError(f"bad degree {text!r}; expected 'n' or 'a,b'")
    return degree if len(degree) == 2 else degree[0]


def _check_degree(preset, deg, flag: str):
    """The degree must fit the preset's grading and have no negative part."""
    if preset.bigraded and not isinstance(deg, tuple):
        raise ValueError(f"preset {preset.name} is bigraded; {flag} needs 'a,b'")
    if not preset.bigraded and isinstance(deg, tuple):
        raise ValueError(f"preset {preset.name} is singly graded; {flag} needs 'n'")
    if min(deg if isinstance(deg, tuple) else (deg,)) < 0:
        raise ValueError(f"{flag} must be >= 0 in every component, got {deg}")


def _open_out(path, mode: str = "w"):
    """`path` opened for writing in mode, or a context of None for no path; a
    path that cannot be written is a usage error."""
    try:
        return open(path, mode) if path else contextlib.nullcontext()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def emit_rows(rows: list[dict], fields: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2))
    elif fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    else:
        for row in rows:
            print("  ".join(f"{k}={row[k]}" for k in fields))


# ---------------------------------------------------------------------------
# subcommands


def cmd_basis(args) -> int:
    p = resolve_p(args)
    preset = get_preset(args.preset, p)
    left = parse_degree(args.left) if args.left is not None else None
    right = parse_degree(args.right) if args.right is not None else None
    if left is not None:
        _check_degree(preset, left, "--left")
        if args.max_degree is not None:  # SUPERCOMOD_MAX_DEGREE is a default
            raise ValueError("basis with --left does not read --max-degree")
    if right is not None:
        _check_degree(preset, right, "--right")
    if left is None and right is None:
        raise ValueError("basis needs --left and/or --right")
    if left is not None and right is not None:
        monos = enumerate_component(preset, left, right)
    elif left is not None:
        monos = enumerate_left(preset, left)
    else:
        box = resolve_box(args)
        monos = [m for m in enumerate_box(preset, box)
                 if preset.right_degree(m) == right]
    rows = [
        {
            "monomial": format_monomial(m),
            "left": str(preset.left_degree(m)),
            "right": str(preset.right_degree(m)),
            "parity": m.parity,
        }
        for m in monos
    ]
    emit_rows(rows, ["monomial", "left", "right", "parity"], args.format)
    return 0


def cmd_poincare(args) -> int:
    p = resolve_p(args)
    box = resolve_box(args)
    M = parse_object_id(args.object, p, box)
    table = M.poincare()
    bigraded = any(isinstance(d, tuple) for d in table)
    rows = []
    for d in sorted(table):
        if bigraded:
            rows.append({"s": d[0], "t": d[1], "dim": table[d]})
        else:
            rows.append({"degree": d, "dim": table[d]})
    fields = ["s", "t", "dim"] if bigraded else ["degree", "dim"]
    emit_rows(rows, fields, args.format)
    return 0


def _render_terms(terms) -> str:
    bits = []
    for c, lab in terms:
        bits.append(lab if c == 1 else f"{c}*{lab}")
    return " + ".join(bits) if bits else "0"


def _basis_images(S, f) -> list[tuple[str, str]]:
    """(label, rendered image) for each basis element of S that f does not kill."""
    return [(lab, _render_terms(img))
            for d in sorted(S.degrees(), key=str)
            for lab in S.basis(d)
            if (img := f.image_of(lab))]


def cmd_hom(args) -> int:
    p = resolve_p(args)
    box = resolve_box(args)
    S = parse_object_id(args.source, p, box)
    T = parse_object_id(args.target, p, box)
    space = hom_space(S, T)
    images = [_basis_images(S, f) for f in space.basis] if args.basis else []
    if args.format == "json":
        doc: dict = {"source": args.source, "target": args.target, "dim": space.dim}
        if args.basis:
            doc["basis"] = [dict(pairs) for pairs in images]
        print(json.dumps(doc, indent=2))
        return 0
    print(space.dim)
    for i, pairs in enumerate(images):
        print(f"f{i}: " + "; ".join(f"{lab} -> {img}" for lab, img in pairs))
    return 0


def cmd_verify(args) -> int:
    p = resolve_p(args)
    if args.suite != "all" and args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    for value, flag in ((args.n, "--n"), (args.m, "--m")):
        _check_nonnegative(value, flag)
    if args.suite != "all":
        # a flag given must reach the suite; SUPERCOMOD_MAX_DEGREE is a default
        accepted = inspect.signature(SUITES[args.suite]).parameters
        for value, flag, param in ((args.n, "--n", "n_max"), (args.m, "--m", "m_max"),
                                   (args.max_degree, "--max-degree", "box")):
            if value is not None and param not in accepted:
                raise ValueError(f"suite {args.suite!r} does not read {flag}")
    params = {
        "p": p,
        "box": _max_degree(args),
        "n_max": args.n,
        "m_max": args.m,
    }
    names = None if args.suite == "all" else [args.suite]
    created = bool(args.out) and not os.path.exists(args.out)
    with _open_out(args.out, "a") as out:  # before any suite runs, emptied after
        try:
            reports = run_all(names=names, **params)
        except BaseException:
            if created:  # no report: take back the file this run made
                os.remove(args.out)
            raise
        payload = [r.as_dict() for r in reports]
        if out:
            out.truncate(0)
            json.dump(payload, out, indent=2)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["suite", "check", "status", "witness"])
        for rep in reports:
            for c in rep.checks:
                writer.writerow([rep.suite, c.name, c.status, c.witness])
    else:
        for rep in reports:
            n_fail = sum(1 for c in rep.checks if c.status == "fail")
            line = f"{rep.suite}: {rep.status} ({len(rep.checks)} checks"
            line += f", {n_fail} failing)" if n_fail else ")"
            print(line)
            for c in rep.checks:
                if c.status == "fail":
                    print(f"  FAIL {c.name}: {c.witness}")
    return 0 if all(r.ok for r in reports) else 1


def cmd_dump(args) -> int:
    p = resolve_p(args)
    box = resolve_box(args)
    M = parse_object_id(args.object, p, box)
    text = M.to_json(indent=2)
    with _open_out(args.out) as out:
        print(text, file=out)  # stdout when out is None
    return 0


def cmd_load(args) -> int:
    try:
        with open(args.path) as fh:
            M = Comodule.from_json(fh.read())
        problems = M.validate()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"load failed: {exc}", file=sys.stderr)
        return 1
    if problems:
        for line in problems:
            print(f"invalid comodule: {line}", file=sys.stderr)
        return 1
    name = M.name or args.path
    print(f"{name}: preset {M.preset.name} p={M.p} box={M.box} "
          f"dim {M.total_dim()}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--p", type=int, default=None,
                        help="prime (default: SUPERCOMOD_P or 3)")
    params.add_argument("--max-degree", type=int, default=None,
                        help="total-degree box (default: SUPERCOMOD_MAX_DEGREE or 60)")
    table = argparse.ArgumentParser(add_help=False, parents=[params])
    table.add_argument("--format", choices=["text", "json", "csv"], default="text",
                       help="output format")

    parser = argparse.ArgumentParser(
        prog="supercomod",
        description="Exact-arithmetic comodule computations over the "
        "endomorphism super-bialgebra of the additive group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("basis", parents=[table],
                       help="enumerate a bihomogeneous component")
    q.add_argument("--preset", required=True,
                   help=" | ".join(PRESET_NAMES))
    q.add_argument("--left", help="left degree: 'a,b' (bigraded) or 'n'")
    q.add_argument("--right", help="right degree: 'a,b' (bigraded) or 'n'")
    q.set_defaults(fn=cmd_basis)

    q = sub.add_parser("poincare", parents=[table],
                       help="dimension table of a standard object")
    q.add_argument("--object", required=True,
                   help="H | H^k | F:a,b | J:a,b | Fn:n | Jn:n | S:a,b | PhiF:a")
    q.set_defaults(fn=cmd_poincare)

    q = sub.add_parser("hom", parents=[params],
                       help="dimension (and basis) of a comodule hom space")
    q.add_argument("--format", choices=["text", "json"], default="text", help="output format")
    q.add_argument("--source", required=True, help="object id")
    q.add_argument("--target", required=True, help="object id")
    q.add_argument("--basis", action="store_true",
                   help="also print a basis of morphisms")
    q.set_defaults(fn=cmd_hom)

    q = sub.add_parser("verify", parents=[table],
                       help="run a verification suite (or all of them)")
    q.add_argument("--suite", required=True,
                   help="suite name or 'all': " + ", ".join(sorted(SUITES)))
    q.add_argument("--n", type=int, default=None,
                   help="override the suite's n_max")
    q.add_argument("--m", type=int, default=None,
                   help="override the suite's m_max")
    q.add_argument("--out", help="also write the JSON report to this file")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("dump", parents=[params],
                       help="serialize a standard object to JSON")
    q.add_argument("--object", required=True, help="object id")
    q.add_argument("--out", help="write to this file instead of stdout")
    q.set_defaults(fn=cmd_dump)

    q = sub.add_parser("load", help="load a comodule from JSON and validate it")
    q.add_argument("path", help="JSON file written by dump")
    q.set_defaults(fn=cmd_load)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
