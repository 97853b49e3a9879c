"""Command line front end.

Subcommands: siteswap, check, construct, transform, solve, render,
enumerate.  JSON is the only interchange format; the ASCII renderer is
presentation-only.  A result is written as json.dumps(obj, indent=2,
sort_keys=True) writes it, plus a newline, by one small writer
(_to_json); enumerate --dump writes one object per line, as
json.dumps(obj, sort_keys=True) writes it.  Exit codes: 0 success, 1 a
mathematical check failed, 2 bad input or usage: main reports a
ValueError from any layer as "error: ..." with exit 2, except that
solve on a non-frieze exits 1; 141 when the reader of stdout closed the
pipe early.  Results may have integers of any size; a number in an
input file may have at most MAX_DIGITS digits.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .juggling import JugglingFunction, parse_siteswap, format_siteswap, \
    residue
from .matrices import Matrix
from .frieze import PeriodicFrieze, check_frieze, dual_frieze, \
    is_positive, enumerate_sl2_positive, _decided_dual
from .construct import build_frieze_det, build_frieze_twist, twist, \
    inverse_twist, positive_complement, frieze_to_matrix, frieze_entries
from .recurrence import solution_matrix

# Python's default cap on int <-> str conversion, which main lifts
MAX_DIGITS = sys.int_info.default_max_str_digits
# render draws at most this many window slots, periods * n * (n + 1)
MAX_RENDER_CELLS = 10 ** 6
# enumerate searches strips of at most this height: its rows take
# O(height**2) memory, 79 MB and 4.8 s at this height with --bound 2
# (in process, 2-vCPU VM); the search's own budget of row entries
# (frieze.MAX_ENUMERATE_ENTRIES) bounds its time at any height
MAX_ENUMERATE_HEIGHT = 2000
_DIGITS_TO_ZERO = str.maketrans("123456789", "0" * 9)


def _load(path: str, cls, kind: str):
    """cls.from_json of the JSON file at path; a failure to read or
    decode it, a run of more than MAX_DIGITS digits in it, or nesting
    deeper than the interpreter's recursion limit, is a ValueError that
    names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if "0" * (MAX_DIGITS + 1) in text.translate(_DIGITS_TO_ZERO):
            raise ValueError(f"a number has more than {MAX_DIGITS} digits")
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise TypeError("not a JSON object")
        return cls.from_json(obj)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"bad {kind} file {path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad {kind} file {path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"bad {kind} file {path}: JSON nested too "
                         f"deeply") from None


# how json.dumps writes each leaf type of a payload
_LEAVES = {int: int.__repr__, str: json.encoder.encode_basestring_ascii,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): lambda _: "null"}


def _to_json(obj, indent: str) -> str:
    """The bytes json.dumps(obj, indent=2, sort_keys=True) writes for
    obj at the given indent, from dicts with str keys, lists and the
    leaves of _LEAVES; any other key or leaf is a TypeError.  The stdlib
    falls back to its pure-Python encoder for indent, and a list of
    plain ints, as a row of entries, is one join here."""
    kind = type(obj)
    if kind in _LEAVES:
        return _LEAVES[kind](obj)
    inner = indent + "  "
    if kind is dict:
        items = [f"{_LEAVES[str](key)}: {_to_json(obj[key], inner)}"
                 for key in sorted(obj)]
    elif kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON "
                        f"serializable")
    elif set(map(type, obj)) == {int}:
        items = map(int.__repr__, obj)
    else:
        items = [_to_json(x, inner) for x in obj]
    ends = "{}" if kind is dict else "[]"
    if not obj:
        return ends
    sep = ",\n" + inner
    return f"{ends[0]}\n{inner}{sep.join(items)}\n{indent}{ends[1]}"


def _emit(obj: dict, out: str | None) -> None:
    """Write obj's JSON to the file out, or else to stdout.  On a stdout
    with a byte layer the encoded text goes through that layer, once the
    text layer is flushed, in a loop that checks each count.  Under
    PYTHONUNBUFFERED the byte layer is the raw file: a write into a pipe
    that its reader closes mid-write returns a short count, which the
    text layer would drop, and the next write raises BrokenPipeError."""
    text = _to_json(obj, "") + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from None
    elif not hasattr(sys.stdout, "buffer"):
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        view = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while view:
            view = view[sys.stdout.buffer.write(view):]


def cmd_siteswap(args) -> int:
    pi = parse_siteswap(args.pattern)
    print(f"pattern   {format_siteswap(pi)}")
    print(f"period    {pi.period}")
    print(f"values    {' '.join(str(v) for v in pi.values)}")
    print(f"balls     {pi.balls}")
    print(f"dual      {format_siteswap(pi.dual())}")
    print(f"loops     {list(pi.loops()) or '-'}")
    print(f"coloops   {list(pi.coloops()) or '-'}")
    print(f"uniform   {'yes' if pi.is_uniform() else 'no'}")
    print("necklace")
    for a, sched in enumerate(pi.necklace(), start=1):
        print(f"  L{a}: {' '.join(str(b) for b in sched)}")
    return 0


def cmd_check(args) -> int:
    c = _load(args.frieze, PeriodicFrieze, "frieze")
    report = check_frieze(c)
    payload = report.to_json()
    payload["positive"] = is_positive(c)
    _emit(payload, args.output)
    return 0 if report.ok else 1


def _disagreement(c: PeriodicFrieze, m: Matrix,
                  pi: JugglingFunction) -> str | None:
    """Why construct --verify fails: the first free entry of the twist
    route's frieze c, column by column, that differs from its exchange
    minor (one reader frieze_entries for the matrix), else the message
    of the decision by c's dual when c is not a frieze, else None.  Both
    routes fill the fixed entries from the same skeleton, so only the
    free ones can differ."""
    entry = frieze_entries(m, pi)
    for b, (fixed, col) in enumerate(zip(c.shape.skeleton(), c.columns),
                                     start=1):
        for a, (skel, x) in enumerate(zip(fixed, col), start=b):
            if skel is None and x != (y := entry(a, b)):
                return f"entry ({a}, {b}) is {x} by twist and {y} by det"
    try:
        _decided_dual(c)
    except ValueError as exc:
        return str(exc)
    return None


def cmd_construct(args) -> int:
    m = _load(args.matrix, Matrix, "matrix")
    pi = parse_siteswap(args.siteswap)
    if not args.verify:
        build = build_frieze_det if args.method == "det" else build_frieze_twist
        _emit(build(m, pi).to_json(), args.output)
        return 0
    c = build_frieze_twist(m, pi)
    problem = _disagreement(c, m, pi)
    if problem:
        print(f"verification failed: {problem}", file=sys.stderr)
        return 1
    _emit(c.to_json(), args.output)
    return 0


def cmd_transform(args) -> int:
    if args.siteswap is not None and args.op in ("complement", "dual",
                                                 "invert-F"):
        raise ValueError(f"--op {args.op} takes no --siteswap")
    if args.op in ("dual", "invert-F"):
        c = _load(args.input, PeriodicFrieze, "frieze")
        out = dual_frieze(c) if args.op == "dual" else frieze_to_matrix(c)
    else:
        m = _load(args.input, Matrix, "matrix")
        if args.op == "complement":
            out = positive_complement(m)
        elif args.siteswap is None:
            raise ValueError(f"--op {args.op} needs --siteswap")
        else:
            pi = parse_siteswap(args.siteswap)
            out = (twist if args.op == "twist" else inverse_twist)(m, pi)
    _emit(out.to_json(), args.output)
    return 0


def cmd_solve(args) -> int:
    c = _load(args.frieze, PeriodicFrieze, "frieze")
    try:
        window = solution_matrix(c)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    payload = window.to_json()
    if args.basis is not None:
        n = c.shape.period
        sched = [residue(b, n) for b in c.shape.landing_schedule(args.basis)]
        payload["schedule"] = sched
        payload["basis_columns"] = {str(r): payload["columns"][str(r)]
                                    for r in sched}
    _emit(payload, args.output)
    return 0


def render_frieze(c: PeriodicFrieze, periods: int = 1) -> str:
    """Fixed-width diamond strip of the slots whose skeleton value is
    not 0: G marks the diagonal, B the boundary, and the free entries
    are unmarked."""
    pi = c.shape
    n = pi.period
    depth = max(pi(b) - b for b in range(1, n + 1))
    skeleton = pi.skeleton()
    cells = {}
    for b in range(1, periods * n + 1):
        top = pi(b) - b
        for d, fixed in enumerate(skeleton[residue(b, n) - 1]):
            if fixed != 0:
                marker = ("G" if d == 0 else "") + ("B" if d == top else "")
                cells[(d, 2 * b + d)] = marker + str(c.entry(b + d, b))
    width = max(len(t) for t in cells.values()) + 1
    slots = range(2, 2 * periods * n + depth + 1)
    lines = []
    for d in range(depth + 1):
        line = "".join(cells.get((d, s), "").rjust(width) for s in slots)
        lines.append(line.rstrip())
    return "\n".join(lines)


def cmd_render(args) -> int:
    if args.periods < 1:
        raise ValueError("--periods must be positive")
    c = _load(args.frieze, PeriodicFrieze, "frieze")
    n = c.shape.period
    cells = args.periods * n * (n + 1)
    if cells > MAX_RENDER_CELLS:
        raise ValueError(f"--periods {args.periods} at period {n} is "
                         f"{cells} cells, more than {MAX_RENDER_CELLS}")
    print(render_frieze(c, args.periods))
    return 0


def cmd_enumerate(args) -> int:
    if args.height > MAX_ENUMERATE_HEIGHT:
        raise ValueError(f"--height {args.height} is more than "
                         f"{MAX_ENUMERATE_HEIGHT}")
    friezes = enumerate_sl2_positive(args.height, args.bound)
    print(f"count {len(friezes)}")
    if args.dump:
        for f in friezes:
            print(json.dumps(f.to_json(), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jugglerfrieze",
        description="Exact arithmetic for juggler's friezes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("siteswap", help="inspect a juggling pattern")
    p.add_argument("pattern")
    p.set_defaults(func=cmd_siteswap)

    p = sub.add_parser("check", help="verify the frieze conditions")
    p.add_argument("frieze")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="build the frieze of a matrix")
    p.add_argument("matrix")
    p.add_argument("--siteswap", required=True)
    p.add_argument("--method", choices=("det", "twist"), default="det")
    p.add_argument("--verify", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("transform", help="apply a matrix or frieze transform")
    p.add_argument("input")
    p.add_argument("--op", required=True,
                   choices=("twist", "inverse-twist", "complement", "dual",
                            "invert-F"))
    p.add_argument("--siteswap")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("solve", help="solution window of the recurrence")
    p.add_argument("frieze")
    p.add_argument("--basis", type=int, default=None,
                   help="also list the basis columns indexed by this schedule")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("render", help="print the frieze as a diamond strip")
    p.add_argument("frieze")
    p.add_argument("--periods", type=int, default=1)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("enumerate", help="positive integral friezes, k = 2")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--dump", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    """Run one subcommand; the parser is built once, at import, and
    each call parses into a fresh namespace.  Python's cap on int <-> str
    conversion is lifted for the call and restored afterwards.  Output
    is flushed before the call returns; when its reader has closed the
    pipe, stdout is pointed at os.devnull, so the interpreter's final
    flush does not fail again, and the exit code is 141, as for a
    process killed by SIGPIPE."""
    args = _PARSER.parse_args(argv)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    finally:
        sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
