"""The benchmark harness still runs against the package.

perfbench/tracer.py binds package names from outside (the spanned public
functions, `AffineDiagram.__post_init__`, the caches it reads hit ratios
from); renaming or removing one of them, or dropping a cache, breaks
traced runs.  The first test names every binding that no longer resolves
and every cache binding without a callable `cache_info`; the second runs
the harness's own self-test, a few seconds.
"""

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import CACHES, COUNTED, SPANNED

    missing = [
        f"afftl.{module}.{attr}"
        for module, attr in [*SPANNED, *COUNTED, *CACHES]
        if not hasattr(importlib.import_module(f"afftl.{module}"), attr)
    ]
    assert not missing, f"perfbench/tracer.py binds names afftl no longer defines: {missing}"
    # hit ratios come from cache_info(), and constructions are counted by
    # patching the diagram's construction hook: a traced run needs both
    caches = {
        f"afftl.{module}.{attr}": getattr(importlib.import_module(f"afftl.{module}"), attr)
        for module, attr in CACHES
    }
    uncached = [name for name, f in caches.items() if not callable(getattr(f, "cache_info", None))]
    assert not uncached, f"perfbench/tracer.py reads cache_info() of uncached names: {uncached}"
    from afftl.diagrams import AffineDiagram

    assert callable(getattr(AffineDiagram, "__post_init__", None))


def test_perfbench_selftest():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout
