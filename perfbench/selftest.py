"""Fast self-test of the benchmark machinery on tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that repeated and traced runs of the same command print identical
stdout (tracing must not change output), that the summed self times of a
traced run never exceed its traced wall time, that every span lies within
its parent's start and end, that the tracer reports
exactly the per-layer metrics BENCHMARK.json declares, that the predicted
layer split holds (no Laurent arithmetic outside products), and that the
products gate's rewrite-engine reference agrees with `afftl mul`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

import run
import tracer
import workloads

TINY = {
    "enumerate": ["enumerate", "--n", "4", "--max-len", "6"],
    "census": ["cells", "census", "--n", "4", "--max-len", "6"],
    "verify": ["verify", "--n", "4", "--max-len", "4", "--seed", "1"],
}


def digest(proc: run.Proc) -> str:
    if proc.code != 0:
        raise AssertionError(f"exit {proc.code}: {proc.stderr.decode()[-1000:]}")
    return hashlib.sha256(proc.stdout).hexdigest()


def traced(argv: list[str], tag: str) -> tuple[str, dict]:
    out = run.WORK / f"selftest-{tag}.json"
    proc = run.spawn([str(run.TRACER), "--out", str(out), "--", *argv])
    return digest(proc), json.loads(out.read_text())


def check_traced_runs() -> None:
    declared = [m["name"] for m in run.declared_metrics()["per_layer"]]
    if declared != tracer.metric_names() + ["trace.overhead_frac"]:
        raise AssertionError("BENCHMARK.json per_layer differs from tracer.metric_names()")
    for tag, argv in TINY.items():
        plain = {digest(run.spawn(["-m", "afftl.cli", *argv])) for _ in range(2)}
        sha, layers = traced(argv, tag)
        if plain != {sha}:
            raise AssertionError(f"{tag}: stdout digests differ across runs: {plain | {sha}}")
        if layers["self_s_sum"] > layers["wall_main_s"] * (1 + 1e-9):
            raise AssertionError(f"{tag}: self times {layers['self_s_sum']} exceed wall {layers['wall_main_s']}")
        if layers["spans_outside_parent"]:
            raise AssertionError(f"{tag}: {layers['spans_outside_parent']} spans lie outside their parent")
        if min(v for k, v in layers.items() if k.endswith(".self_s")) < 0:
            raise AssertionError(f"{tag}: negative self time")
        laurent = sum(v for k, v in layers.items() if k.startswith("laurent.") and k.endswith(".calls"))
        if laurent:
            raise AssertionError(f"{tag}: {laurent} Laurent calls where none are expected")
        print(f"ok {tag}: digest {sha[:12]}, {layers['spans']} spans, "
              f"self sum {layers['self_s_sum']:.4f} s <= wall {layers['wall_main_s']:.4f} s")


def check_products_reference() -> None:
    rng = random.Random(1)
    a, b = (workloads.random_element(rng, 4, 6) for _ in range(2))
    paths = []
    for name, obj in (("a", a), ("b", b)):
        path = run.WORK / f"selftest-{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths.append(f"@{path}")
    argv = ["mul", "--n", "4", "--a", paths[0], "--b", paths[1]]
    sha, layers = traced(argv, "products")
    proc = run.spawn(["-m", "afftl.cli", *argv])
    if digest(proc) != sha:
        raise AssertionError("products: traced and untraced stdout differ")
    reference, pairs = workloads.rewrite_product(a, b)
    got = {
        workloads.lexmin_word(4, t["word"]): {x["exp"]: x["c"] for x in t["coeff"]}
        for t in json.loads(proc.stdout)["terms"]
    }
    if got != reference:
        raise AssertionError("products: rewrite-engine reference disagrees with afftl mul")
    if not layers["laurent.mul.calls"] or layers["algebra.mul.calls"] != 1:
        raise AssertionError("products: expected Laurent arithmetic and one algebra.mul call")
    if layers["diagrams.multiply.calls"] < pairs:
        raise AssertionError("products: fewer diagram products than basis pairs")
    print(f"ok products: {len(reference)} terms from {pairs} basis pairs match the rewrite engine")


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    check_traced_runs()
    check_products_reference()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
