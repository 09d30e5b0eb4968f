"""Which afftl functions and methods no command reaches.

Every subcommand and output format runs in-process at a tiny size, plus
one domain error and `mul` on sparse coefficients, under `sys.setprofile` with every cache cleared first.
The functions of the package that are never called, module-level ones and
the methods, classmethods, staticmethods and property getters of the
classes it defines, must match UNREACHED exactly, each tagged with what
keeps it: a name perfbench/tracer.py binds, a helper reached only through
such a name, documented library API, or the console entry point.  The API
tag is checked too: README's `## Python API` example runs under the same
recorder and must call every name so tagged.  New code that no command
calls fails here until it gets a caller or a tag; a removal shrinks the
table.
"""

import contextlib
import cProfile
import importlib
import inspect
import io
import pkgutil
import re
from pathlib import Path

from conftest import record_calls

import afftl
from afftl.cli import _DISPATCH, main

ROOT = Path(__file__).resolve().parents[1]

TRACER = "bound by perfbench/tracer.py"
API = "documented library API, called by README's Python API example"

UNREACHED = {
    "algebra.rewrite_mul": TRACER,
    "cells.a_bruteforce": TRACER,
    "cells.cancellable": TRACER,
    "words.braid_witness": TRACER,
    "words.commutation_class": TRACER,
    "words.greedy_back": TRACER,
    "words.greedy_front": TRACER,
    "cells.right_cell_involution": API,
    "diagrams.top_involution": "reached only through cells.right_cell_involution",
    "words.left_descents": API,
    "diagrams.crossing_number": API,
    "words.right_descents": API,
    "cli.run": "entry point (pyproject's console script)",
    "diagrams.AffineDiagram.__post_init__": TRACER,
    # the calculator's Python surface: elements and their coefficients
    "algebra.AlgebraElement.zero": API,
    "algebra.AlgebraElement.one": API,
    "algebra.AlgebraElement.from_word": API,
    "algebra.AlgebraElement.__eq__": API,
    "algebra.AlgebraElement.__hash__": API,
    "algebra.AlgebraElement.is_zero": API,
    "algebra.AlgebraElement.__add__": API,
    "algebra.AlgebraElement.__sub__": API,
    "algebra.AlgebraElement.scale": API,
    "algebra.AlgebraElement.__mul__": API,
    "algebra.AlgebraElement.__rmul__": API,
    "algebra.AlgebraElement.__repr__": API,
    "laurent.LaurentPoly.__neg__": API,
    "laurent.LaurentPoly.__sub__": API,
    "laurent.LaurentPoly.__rsub__": API,
    "laurent.LaurentPoly.__pow__": API,
    "laurent.LaurentPoly.__str__": API,
}

ELEMENT = (
    '{"n": 4, "terms": [{"coeff": [{"exp": -1, "c": 2}, {"exp": 1, "c": 1}], "word": [1, 3]}, '
    '{"coeff": [{"exp": 0, "c": 1}], "word": [2]}]}'
)
# a sparse coefficient, so `mul` multiplies Laurent polynomials, on a
# word that closes a loop, so the loader multiplies by delta
SPARSE = (
    '{"n": 4, "terms": [{"coeff": [{"exp": 0, "c": 1}, {"exp": 1000, "c": 1}], "word": [1, 1]}]}'
)
DIAGRAM = (
    '{"n": 5, "top": [{"side": "T", "pos": 4}, {"side": "T", "pos": 3}, {"side": "T", "pos": 2}, '
    '{"side": "T", "pos": 1}, {"side": "B", "pos": -1}], "bottom": [{"side": "B", "pos": 0}, '
    '{"side": "B", "pos": 3}, {"side": "B", "pos": 2}, {"side": "T", "pos": 10}, '
    '{"side": "B", "pos": 6}], "loops": 0}'
)

# (argv, exit code)
COMMANDS = [
    (["eval", "--n", "4", "--word", "1 3 2 4 1"], 0),
    (["eval", "--n", "4", "--word", "1 9"], 1),
    (["mul", "--n", "4", "--a", ELEMENT, "--b", ELEMENT], 0),
    (["mul", "--n", "4", "--a", SPARSE, "--b", ELEMENT], 0),
    (["straighten", "--diagram", DIAGRAM], 0),
    *((["diagram", "--n", "4", "--word", "1 3 2", "--format", f], 0) for f in ("json", "ascii", "svg")),
    (["afn", "--n", "5", "--word", "1 3 2 4"], 0),
    (["cells", "label", "--n", "4", "--word", "1 3 2 4"], 0),
    *((["cells", "census", "--n", "4", "--max-len", "6", "--format", f], 0) for f in ("json", "md")),
    (["involution", "--n", "4", "--word", "2 1 3 2"], 0),
    (["enumerate", "--n", "4", "--max-len", "5"], 0),
    (["enumerate", "--no-labels", "--n", "5", "--max-len", "5"], 0),
    (["verify", "--n", "4", "--max-len", "4"], 0),
]


def _modules():
    return [importlib.import_module(f"afftl.{m.name}") for m in pkgutil.iter_modules(afftl.__path__)]


def _functions(modules):
    """Code object -> "module.name" of each function a module defines, and
    "module.Class.name" of each function in the body of a class it defines.
    Code compiled elsewhere is left out: a NamedTuple's generated `_make`,
    `_replace`, `__repr__` and the like share one code object across all
    NamedTuples."""
    out = {}
    for mod in modules:
        short = mod.__name__.removeprefix("afftl.")
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member) and member.__code__.co_filename == mod.__file__:
                        out.setdefault(member.__code__, f"{short}.{name}.{attr}")
                continue
            f = inspect.unwrap(obj) if callable(obj) else None
            if inspect.isfunction(f) and f.__module__ == mod.__name__:
                out[f.__code__] = f"{short}.{name}"
    return out


def _called(modules, run):
    """The code objects of every call made while run() runs, with every
    cache cleared first."""
    for mod in modules:
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()  # a cache hit would hide its function
    return record_calls(run)


def _inside():
    pass


def _after():
    pass


def test_the_recorder_hands_an_outer_cprofile_back():
    # under `python -m cProfile -m pytest` the profiler in place is
    # cProfile's, an object that sys.setprofile cannot take back
    outer = cProfile.Profile()
    inner = set()

    def session():
        outer.enable()
        try:
            inner.update(record_calls(_inside))
            _after()
        finally:
            outer.disable()

    record_calls(session)  # puts back whatever profiles this test run
    assert _inside.__code__ in inner and _after.__code__ not in inner
    assert _after.__code__ in {entry.code for entry in outer.getstats()}


def _run_commands():
    for argv, code in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == code, argv


def _readme_example() -> str:
    """The one fenced python block of README's `## Python API` section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_unreached_functions_match_the_table():
    assert {argv[0] for argv, _ in COMMANDS} == set(_DISPATCH)
    modules = _modules()
    called = _called(modules, _run_commands)
    unreached = sorted(name for code, name in _functions(modules).items() if code not in called)
    assert unreached == sorted(UNREACHED)


def test_readme_example_calls_every_api_name():
    modules = _modules()
    example = compile(_readme_example(), str(ROOT / "README.md"), "exec")
    called = _called(modules, lambda: exec(example, {}))  # its asserts check its results
    names = {name for code, name in _functions(modules).items() if code in called}
    api = {name for name, tag in UNREACHED.items() if tag == API}
    assert sorted(api - names) == []


def test_tracer_tags_name_tracer_bindings(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import LAURENT_METHODS, SPANNED

    bound = {f"{module}.{attr}" for module, attr in SPANNED}
    bound |= {f"laurent.LaurentPoly.{method}" for method in LAURENT_METHODS}
    # instrument() patches this hook by name to count constructions; it is
    # in none of the tracer's tables
    bound.add("diagrams.AffineDiagram.__post_init__")
    tagged = {name for name, tag in UNREACHED.items() if tag == TRACER}
    assert tagged <= bound
