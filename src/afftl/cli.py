"""Command-line surface.

Subcommands: eval, mul, straighten, diagram, afn, cells label,
cells census, involution, enumerate, verify.  Exit codes: 0 success,
1 domain error (error JSON on stderr), 2 usage error, 3 failed internal
self-check (InvariantError JSON on stderr; a bug, not bad input); closed
stdout: killed by SIGPIPE, shell status 141.

`import afftl.cli` loads only `afftl`, `afftl.cli` and `afftl.config`.
Each command imports the modules it runs when it is dispatched, so a
usage error or `--help` loads nothing more.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import GroupConfig, InvariantError


def parse_word(text: str) -> tuple[int, ...]:
    text = text.replace(",", " ").strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}: {exc}") from exc


def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="afftl",
        description="Exact cylinder-diagram computations in affine Temperley-Lieb algebras",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_n(p):
        p.add_argument("--n", type=int, required=True, help="number of generators (>= 3)")

    def add_word(p):
        p.add_argument("--word", type=str, default="", help='generator word, e.g. "1 3 2 4"')

    p = sub.add_parser("eval", help="normal form of a word: exponent, canonical word, diagram")
    add_n(p)
    add_word(p)

    p = sub.add_parser("mul", help="product of two element JSONs")
    add_n(p)
    p.add_argument("--a", required=True, help="element JSON (or @file)")
    p.add_argument("--b", required=True, help="element JSON (or @file)")

    note = ("canonical word of a diagram JSON; time grows with the length of that "
            "word, which a large 'loops' count or vertical twist makes long")
    p = sub.add_parser("straighten", help=note, description=note)
    p.add_argument("--diagram", required=True, help="diagram JSON (or @file)")

    p = sub.add_parser("diagram", help="diagram of a word")
    add_n(p)
    add_word(p)
    p.add_argument("--format", choices=("json", "ascii", "svg"), default="json")

    p = sub.add_parser("afn", help="arc-count invariant of a word")
    add_n(p)
    add_word(p)

    p = sub.add_parser("cells", help="cell labels and censuses")
    csub = p.add_subparsers(dest="cells_command", required=True)
    pl = csub.add_parser("label", help="cell labels of a word")
    add_n(pl)
    add_word(pl)
    pc = csub.add_parser("census", help="left/right cell counts per two-sided label")
    add_n(pc)
    pc.add_argument("--max-len", type=int, required=True)
    pc.add_argument("--format", choices=("json", "md"), default="json")

    p = sub.add_parser("involution", help="canonical decomposition of an involution")
    add_n(p)
    add_word(p)

    p = sub.add_parser("enumerate", help="stream all elements up to a length horizon")
    add_n(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--no-labels", action="store_true", help="skip cell labels (faster)")

    note = ("run the invariant suites on the elements up to --max-len; neighbour-symmetry "
            "tries at most 5n candidates per commuting set the horizon reaches")
    p = sub.add_parser("verify", help=note, description=note)
    add_n(p)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    return top


def _cmd_eval(args) -> int:
    from . import diagrams, straightening

    cfg = GroupConfig(args.n)
    r = straightening.stack(cfg, parse_word(args.word))
    word = straightening.straighten(r.diagram).letters
    _emit({"exponent": r.contractible, "word": list(word),
           "diagram": diagrams.to_json_dict(r.diagram)})
    return 0


def _cmd_mul(args) -> int:
    from . import algebra

    a = algebra.element_from_json(_load_json_arg(args.a))
    b = algebra.element_from_json(_load_json_arg(args.b))
    if a.n != args.n or b.n != args.n:
        raise ValueError("element sizes do not match --n")
    print(algebra.element_to_json(algebra.mul(a, b)))
    return 0


def _cmd_straighten(args) -> int:
    from . import diagrams, straightening

    d = diagrams.from_json_dict(_load_json_arg(args.diagram))
    sw = straightening.straighten(d)
    _emit({"word": list(sw.letters), "straight_core": sorted(sw.core)})
    return 0


def _cmd_diagram(args) -> int:
    from . import diagrams, straightening

    cfg = GroupConfig(args.n)
    r = straightening.stack(cfg, parse_word(args.word))
    if args.format == "json":
        _emit(
            {
                "exponent": r.contractible,
                "diagram": diagrams.to_json_dict(r.diagram),
            }
        )
    else:
        from . import render

        draw = render.render_ascii if args.format == "ascii" else render.render_svg
        sys.stdout.write(draw(r.diagram))
    return 0


def _cmd_afn(args) -> int:
    from . import cells

    cfg = GroupConfig(args.n)
    print(cells.a_value(cfg, parse_word(args.word)))
    return 0


def _cmd_cells(args) -> int:
    from . import cells

    cfg = GroupConfig(args.n)
    if args.cells_command == "label":
        _emit(cells.labels(cfg, parse_word(args.word)).to_json())
        return 0
    rows = cells.census(cfg, args.max_len)
    if args.format == "json":
        _emit([row.to_json() for row in rows])
    else:
        print("| two_sided | left_cells | right_cells | elements_seen |")
        print("|---|---|---|---|")
        for row in rows:
            print(
                f"| {row.two_sided} | {row.left_cells} | {row.right_cells} "
                f"| {row.elements_seen} |"
            )
    return 0


def _cmd_involution(args) -> int:
    from . import cells

    cfg = GroupConfig(args.n)
    dec = cells.involution_decompose(cfg, parse_word(args.word))
    _emit({"x": list(dec.x), "T": sorted(dec.core)})
    return 0


def _cmd_enumerate(args) -> int:
    if args.no_labels:
        from .explore import enumerate_elements as records
    else:
        from .cells import labelled_elements as records
    cfg = GroupConfig(args.n)
    write = sys.stdout.write
    for rec in records(cfg, args.max_len):
        write(rec.json_line() + "\n")
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    checks = verify.run_all(args.n, args.max_len, args.seed)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failed += 0 if ok else 1
    return 1 if failed else 0


_DISPATCH = {
    "eval": _cmd_eval,
    "mul": _cmd_mul,
    "straighten": _cmd_straighten,
    "diagram": _cmd_diagram,
    "afn": _cmd_afn,
    "cells": _cmd_cells,
    "involution": _cmd_involution,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except InvariantError as exc:
        _emit_error(exc)
        return 3
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 1


def run() -> None:
    """Console entry point; the only code in afftl that sets process-wide state.

    A reader that closes stdout ends the command as it ends `cat`, by the
    default SIGPIPE action.  The collector stays off: a command's records
    form no cycles, so it would only rescan the caches.  Freezing before
    exit keeps shutdown's collections from scanning them once more.
    """
    import gc
    import signal

    sigpipe = getattr(signal, "SIGPIPE", None)
    if sigpipe is not None:
        signal.signal(sigpipe, signal.SIG_DFL)
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
