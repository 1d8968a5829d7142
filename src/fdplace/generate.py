"""Seeded random model generation, shared by tests and the gen command."""

from __future__ import annotations

import random

from .model import FailureModel, Node


def random_model(
    leaves: int,
    seed: int,
    max_fanout: int = 4,
    max_capacity: int = 1,
    roots: int = 1,
) -> FailureModel:
    """Build a random failure model with the given number of leaves.

    The same arguments always produce the same model. Occasional
    pass-through domains (one internal node wrapping another) are
    inserted so chain handling gets exercised. The model compiles on
    first use, like one built by hand.
    """
    if leaves < 1:
        raise ValueError(f"need at least one leaf, got {leaves}")
    if not 1 <= roots <= leaves:
        raise ValueError(f"roots must be in [1, {leaves}], got {roots}")
    if max_fanout < 2:
        raise ValueError(f"max_fanout must be at least 2, got {max_fanout}")
    if max_capacity < 1:
        raise ValueError(f"max_capacity must be at least 1, got {max_capacity}")

    rng = random.Random(seed)
    nodes: dict[str, Node] = {}
    counts = {"domain": 0, "server": 0}

    def split(count: int, parts: int) -> list[int]:
        if parts == 1:
            return [count]
        cuts = sorted(rng.sample(range(1, count), parts - 1))
        sizes = []
        prev = 0
        for cut in cuts + [count]:
            sizes.append(cut - prev)
            prev = cut
        return sizes

    # Depth first with an explicit stack, children in order. Without
    # recursion, running out of memory raises MemoryError; a frame that
    # cannot be allocated raises SystemError on some Python versions.
    stack: list[tuple[int, str | None]] = [(p, None) for p in reversed(split(leaves, roots))]
    while stack:
        count, parent = stack.pop()
        while rng.random() < 0.15:
            counts["domain"] += 1
            name = f"d{counts['domain']}"
            nodes[name] = Node(name, parent, None)
            parent = name
        if count == 1:
            counts["server"] += 1
            name = f"s{counts['server']}"
            nodes[name] = Node(name, parent, rng.randint(1, max_capacity))
            continue
        counts["domain"] += 1
        name = f"d{counts['domain']}"
        nodes[name] = Node(name, parent, None)
        fanout = rng.randint(2, min(max_fanout, count))
        for part in reversed(split(count, fanout)):
            stack.append((part, name))
    return FailureModel(nodes=nodes)
