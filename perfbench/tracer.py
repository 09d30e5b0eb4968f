"""Run one afftl command with per-layer tracing, from outside the package.

    PYTHONPATH=src python3 perfbench/tracer.py --out trace.json -- enumerate --n 4 --max-len 6

The command's stdout is left untouched.  Before `afftl.cli.main` runs, the
public functions listed in SPANNED are replaced, in every afftl module
namespace that bound them, by wrappers that record a span (name, parent,
start, end) into flat in-memory arrays.  A few tiny helpers only count
calls.  After the command returns, self times are computed from the spans
(span time minus the time of its direct child spans), cache statistics are
read from `cache_info()`, and one JSON object of per-layer metrics is
written to --out.  Time spent in unlisted functions is charged to the
nearest listed caller; `cli.self_s` is what no layer span covers inside
`main` (argument parsing, JSON I/O).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute) -> metric prefix.  Spans and call counts are kept for
# each; the module is where the function is defined, and every other afftl
# module that imported the same object gets the same wrapper.
SPANNED = {
    ("diagrams", "multiply"): "diagrams.multiply",
    ("diagrams", "generator"): "diagrams.generator",
    ("diagrams", "length"): "diagrams.length",
    ("diagrams", "is_admissible"): "diagrams.is_admissible",
    ("straightening", "stack"): "straightening.stack",
    ("straightening", "straighten"): "straightening.straighten",
    ("straightening", "peel"): "straightening.peel",
    ("straightening", "find_distinguished"): "straightening.find_distinguished",
    ("laurent", "delta_power"): "laurent.delta_power",
    ("algebra", "mul"): "algebra.mul",
    ("algebra", "element_from_json"): "algebra.element_from_json",
    ("algebra", "element_to_json"): "algebra.element_to_json",
    ("algebra", "rewrite_mul"): "algebra.rewrite_mul",
    ("words", "greedy_front"): "words.greedy_front",
    ("words", "greedy_back"): "words.greedy_back",
    ("words", "heap_is_fc"): "words.heap_is_fc",
    ("words", "commutation_class"): "words.commutation_class",
    ("words", "braid_witness"): "words.braid_witness",
    ("words", "left_decomposition"): "words.left_decomposition",
    ("cells", "labels"): "cells.labels",
    ("cells", "reduce_to_core"): "cells.reduce_to_core",
    ("cells", "cancellable"): "cells.cancellable",
    ("cells", "classify_core"): "cells.classify_core",
    ("cells", "a_bruteforce"): "cells.a_bruteforce",
    ("cells", "core_neighbours"): "cells.core_neighbours",
    ("explore", "oracle_counts"): "explore.oracle_counts",
}

# Operator methods of LaurentPoly, spanned under one name per operation.
LAURENT_METHODS = {
    "__mul__": "laurent.mul",
    "__rmul__": "laurent.mul",
    "__add__": "laurent.add",
    "__radd__": "laurent.add",
}

# Helpers too small and too frequent for a span: calls are counted only.
COUNTED = {
    ("diagrams", "partner"): "diagrams.partner",
    ("words", "perm_of"): "words.perm_of",
}

# Caches whose hit ratio is reported, as (module, attribute) -> metric.
CACHES = {
    ("diagrams", "_nu_vector"): "diagrams.nu_cache.hit_ratio",
    ("straightening", "_stack_cached"): "straightening.stack_cache.hit_ratio",
    ("straightening", "straighten"): "straightening.straighten_cache.hit_ratio",
    ("algebra", "_rewrite_mul_cached"): "algebra.rewrite_cache.hit_ratio",
    ("words", "_perm_of"): "words.perm_cache.hit_ratio",
}

# Check names exactly as `afftl verify` prints them.
VERIFY_CHECKS = (
    "defining-relations",
    "unit-laws",
    "associativity",
    "crossing-counts",
    "straighten-roundtrip",
    "counts-vs-oracle",
    "engine-agreement",
    "a-agreement",
    "core-order-independence",
    "involutions",
    "neighbour-symmetry",
)

ENUMERATE = "explore.enumerate_elements"
MAIN = "cli.main"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    timed = sorted(set(SPANNED.values()) | set(LAURENT_METHODS.values()))
    names = []
    for prefix in timed:
        if prefix == "explore.oracle_counts":
            names.append(f"{prefix}.self_s")
        else:
            names += [f"{prefix}.calls", f"{prefix}.self_s"]
    names += [f"{prefix}.calls" for prefix in COUNTED.values()]
    names += sorted(CACHES.values())
    names += [
        "diagrams.constructed",
        "words.commutation_class.words",
        "cells.cancellable.success_ratio",
        f"{ENUMERATE}.self_s",
        "explore.elements",
        "explore.extension_accept_ratio",
        "config.adjacent.calls",
        "cli.self_s",
    ]
    names += [f"verify.{check}.s" for check in VERIFY_CHECKS]
    return names


class Tracer:
    """Spans in flat arrays: span i has parent[i] (-1 at the root), a name
    id, and start/end in perf_counter nanoseconds."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.open: list[int] = [-1]
        self.counts: Counter[str] = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def spanned(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        parent, names, start, end, open_ = self.parent, self.name, self.start, self.end, self.open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(open_[-1])
            names.append(nid)
            end.append(0)
            open_.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def spanned_generator(self, name: str, fn, on_item):
        """Each resumption of the generator is one span; the consumer's work
        between items stays outside it."""
        nid = self._name_id(name)
        parent, names, start, end, open_ = self.parent, self.name, self.start, self.end, self.open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid = len(start)
                parent.append(open_[-1])
                names.append(nid)
                end.append(0)
                open_.append(sid)
                start.append(clock())
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end[sid] = clock()
                    open_.pop()
                on_item(item)
                yield item

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return tallied

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        n = len(self.start)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i] / 1e9
            rec["self_s"] += (dur[i] - child[i]) / 1e9
        return out

    def outside_parent(self) -> int:
        """Number of spans that do not lie within their parent's [start, end]."""
        start, end = self.start, self.end
        return sum(
            1
            for i, p in enumerate(self.parent)
            if p >= 0 and not (start[p] <= start[i] and end[i] <= end[p])
        )

    def direct_children(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        pid = self.name_ids.get(parent_name)
        cid = self.name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(
            1
            for i, p in enumerate(self.parent)
            if self.name[i] == cid and p >= 0 and self.name[p] == pid
        )


def _rebind(original, replacement) -> None:
    """Replace every afftl module-level binding of `original`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "afftl" or modname.startswith("afftl.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def instrument(tracer: Tracer) -> dict:
    """Install every wrapper; returns the state the metrics are read from."""
    import afftl.cli  # noqa: F401  (loads every module the CLI can reach)

    def mod(short):
        return importlib.import_module(f"afftl.{short}")

    state = {
        "caches": {metric: getattr(mod(m), a) for (m, a), metric in CACHES.items()},
        "commutation_words": 0,
        "cancellable": [0, 0],
        "constructed": 0,
        "elements": 0,
        "checks": {},
    }

    def add_class_size(result):
        state["commutation_words"] += len(result)

    def note_cancellable(result):
        state["cancellable"][0] += 1
        state["cancellable"][1] += result is not None

    hooks = {
        "words.commutation_class": add_class_size,
        "cells.cancellable": note_cancellable,
    }
    for (m, attr), name in SPANNED.items():
        fn = getattr(mod(m), attr)
        _rebind(fn, tracer.spanned(name, fn, hooks.get(name)))
    for (m, attr), name in COUNTED.items():
        fn = getattr(mod(m), attr)
        _rebind(fn, tracer.counted(name, fn))

    def note_element(_item):
        state["elements"] += 1

    fn = mod("explore").enumerate_elements
    _rebind(fn, tracer.spanned_generator(ENUMERATE, fn, note_element))

    poly = mod("laurent").LaurentPoly
    for method, name in LAURENT_METHODS.items():
        setattr(poly, method, tracer.spanned(name, getattr(poly, method)))

    cfg_cls = mod("config").GroupConfig
    cfg_cls.adjacent = tracer.counted("config.adjacent", cfg_cls.adjacent)

    diagram_cls = mod("diagrams").AffineDiagram
    post_init = diagram_cls.__post_init__

    def counted_post_init(self):
        state["constructed"] += 1
        post_init(self)

    diagram_cls.__post_init__ = counted_post_init

    verify = mod("verify")
    for attr, fn in list(vars(verify).items()):
        if attr.startswith("check_") and callable(fn):
            key = f"verify.{attr}"

            def remember(result, key=key):
                state["checks"][key] = result[0]

            _rebind(fn, tracer.spanned(key, fn, remember))
    return state


def collect(tracer: Tracer, state: dict) -> dict[str, float]:
    """The metrics named by metric_names(), plus the traced `main` time."""
    spans = tracer.summary()

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    values: dict[str, float] = {}
    for prefix in set(SPANNED.values()) | set(LAURENT_METHODS.values()):
        values[f"{prefix}.calls"] = span(prefix, "calls")
        values[f"{prefix}.self_s"] = span(prefix, "self_s")
    for prefix in COUNTED.values():
        values[f"{prefix}.calls"] = tracer.counts[prefix]
    values["config.adjacent.calls"] = tracer.counts["config.adjacent"]
    for metric, cached in state["caches"].items():
        info = cached.cache_info()
        values[metric] = _ratio(info.hits, info.hits + info.misses)
    values["diagrams.constructed"] = state["constructed"]
    values["words.commutation_class.words"] = state["commutation_words"]
    tried, succeeded = state["cancellable"]
    values["cells.cancellable.success_ratio"] = _ratio(succeeded, tried)
    values[f"{ENUMERATE}.self_s"] = span(ENUMERATE, "self_s")
    values["explore.elements"] = state["elements"]
    attempts = tracer.direct_children(ENUMERATE, "diagrams.multiply")
    values["explore.extension_accept_ratio"] = _ratio(state["elements"], attempts)
    values["cli.self_s"] = span(MAIN, "self_s")
    for check in VERIFY_CHECKS:
        values[f"verify.{check}.s"] = 0.0
    for key, check in state["checks"].items():
        values[f"verify.{check}.s"] = span(key, "total_s")
    out = {name: values[name] for name in metric_names()}
    out["wall_main_s"] = span(MAIN, "total_s")
    out["self_s_sum"] = sum(rec["self_s"] for rec in spans.values())
    out["spans_outside_parent"] = tracer.outside_parent()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the metrics JSON")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="afftl arguments after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer()
    state = instrument(tracer)
    from afftl import cli

    traced_main = tracer.spanned(MAIN, cli.main)
    code = traced_main(command)
    done_ns = time.monotonic_ns()
    sys.stdout.flush()
    metrics = collect(tracer, state)
    metrics["done_monotonic_ns"] = done_ns
    metrics["spans"] = len(tracer.start)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
