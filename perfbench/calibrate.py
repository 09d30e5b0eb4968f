"""Fixed reference work for normalising times to one machine speed.

The runner times this script, as a fresh process, right before every
repetition of a workload; the repetition's time divided by this time is
independent of how fast the shared machine happens to be running then.
Do not change this file: every normalised time in BENCHMARK.json's
history is measured against it.  The work mimics afftl's: frozen
dataclass construction, tuple building and dict lookups.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Node:
    key: tuple
    depth: int


def step(node: Node, i: int) -> Node:
    return Node(tuple((x * 31 + i) % 97 for x in node.key), node.depth + 1)


def main() -> None:
    seen: dict[tuple, int] = {}
    node = Node(tuple(range(8)), 0)
    for i in range(30000):
        node = step(node, i)
        seen[node.key] = seen.get(node.key, 0) + 1


if __name__ == "__main__":
    main()
