"""Workloads: the models the benchmark writes and the requests it sends.

Every model starts from a fixed base shape. Random shapes come from the
package's own generator at BASE_SEED; datacenter shapes are built here
with a fixed jitter in rack sizes. The run's --seed then shuffles child
order, node order in the file and every id. Objectives depend only on
the unlabelled, unordered tree, so the reference objectives, which cost
up to 45 s each through solve_basic, are computed once per base shape
(make_references.py) while the files, digests and witnesses still
change with the seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fdplace.generate import random_model
from fdplace.metrics import FailureAggregate
from fdplace.model import FailureModel, Node, render_model
from fdplace.multi import solve_multi, target_signature
from fdplace.single import solve_basic, solve_fast

BASE_SEED = 20170105


@dataclass(frozen=True)
class Request:
    """One solve request; the benchmark also evaluates its witness."""

    model: str
    rho: int | None = None
    sizes: tuple[int, ...] | None = None
    # Times the request is sent per untraced pass: cheap requests repeat
    # so that the median of the request in the middle of the workload
    # rests on several samples.
    repeat: int = 1

    @property
    def multi(self) -> bool:
        return self.sizes is not None

    @property
    def key(self) -> str:
        if self.multi:
            return "sizes:" + ",".join(str(s) for s in self.sizes)
        return f"rho:{self.rho}"

    def solve_args(self, model_path: Path) -> list[str]:
        if self.multi:
            return ["solve-multi", str(model_path), "--sizes", ",".join(str(s) for s in self.sizes)]
        return ["solve-single", str(model_path), "--rho", str(self.rho)]

    def eval_args(self, model_path: Path, witness_path: Path) -> list[str]:
        flag = "--blocks" if self.multi else "--placement"
        return ["eval", str(model_path), flag, str(witness_path)]


@dataclass(frozen=True)
class Workload:
    models: dict[str, Callable[[], FailureModel]]
    requests: tuple[Request, ...]


def random_base(leaves: int, max_fanout: int = 4, max_capacity: int = 1) -> Callable[[], FailureModel]:
    return lambda: random_model(
        leaves, BASE_SEED, max_fanout=max_fanout, max_capacity=max_capacity
    )


def datacenter_base(fanouts: tuple[int, ...], jitter: float = 0.0) -> Callable[[], FailureModel]:
    """One root; fanouts[i] children per node at depth i, the last level
    being servers of capacity 1. The server count of each rack is
    jittered by up to +-jitter of its nominal size."""

    def build() -> FailureModel:
        rng = random.Random(BASE_SEED)
        nodes = {"dc": Node("dc", None, None)}
        children: dict[str, list[str]] = {"dc": []}
        level = ["dc"]
        for depth, fanout in enumerate(fanouts):
            servers = depth == len(fanouts) - 1
            spread = int(fanout * jitter)
            below = []
            for parent in level:
                count = fanout + rng.randint(-spread, spread)
                for _ in range(count):
                    node_id = f"n{len(nodes)}"
                    nodes[node_id] = Node(node_id, parent, 1 if servers else None)
                    children[node_id] = []
                    children[parent].append(node_id)
                    below.append(node_id)
            level = below
        leaves = [n for n, node in nodes.items() if node.capacity is not None]
        return FailureModel(nodes=nodes, roots=["dc"], children=children, leaves=leaves)

    return build


def permuted(base: FailureModel, seed: int) -> FailureModel:
    """The base shape with child order, node order and ids shuffled.

    Only the nodes table is filled: the result is for render_model."""
    rng = random.Random(seed)
    labels = list(range(len(base.nodes)))
    rng.shuffle(labels)
    rename = {
        old: ("s" if node.capacity is not None else "d") + str(label)
        for (old, node), label in zip(base.nodes.items(), labels)
    }
    nodes: dict[str, Node] = {}
    roots = list(base.roots)
    rng.shuffle(roots)
    stack: list[tuple[str, str | None]] = [(r, None) for r in reversed(roots)]
    while stack:
        old, parent = stack.pop()
        new = rename[old]
        nodes[new] = Node(new, parent, base.nodes[old].capacity)
        kids = list(base.children[old])
        rng.shuffle(kids)
        stack.extend((k, new) for k in reversed(kids))
    return FailureModel(nodes=nodes)


def fingerprint(base: FailureModel) -> str:
    """Digest of a base shape: the key of its reference objectives."""
    text = "\n".join(f"{n.id}\t{n.parent}\t{n.capacity}" for n in base.nodes.values())
    return hashlib.sha256(text.encode()).hexdigest()


def setup(workload: Workload, seed: int, out: Path) -> dict[str, FailureModel]:
    """Generate every base model, write its seeded permutation to
    out/<name>.json, and return the bases."""
    out.mkdir(parents=True, exist_ok=True)
    bases = {}
    for name, build in workload.models.items():
        base = build()
        (out / f"{name}.json").write_text(render_model(permuted(base, seed)), encoding="utf-8")
        bases[name] = base
    return bases


def query(model: FailureModel, request: Request):
    """The library path: one solver call on an already-parsed model."""
    if request.multi:
        return solve_multi(model, request.sizes)
    return solve_fast(model, request.rho)


def compute_reference(model: FailureModel, request: Request) -> list[int]:
    """Reference objective from a second solver: solve_basic for one
    block, and for several blocks the DP under a skew window one wider
    than the natural bound, which searches a different census domain."""
    if request.multi:
        natural = target_signature(request.sizes)[1]
        agg: FailureAggregate = solve_multi(model, request.sizes, skew=natural + 1)[0]
    else:
        agg = solve_basic(model, request.rho)[0]
    return list(agg.entries)


# Why each workload is here is written in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    "single-random": Workload(
        models={"random-40k": random_base(40_000)},
        requests=tuple(Request("random-40k", rho=r) for r in (3, 64, 1024)),
    ),
    "single-wide": Workload(
        models={
            "star-30k": datacenter_base((30_000,)),
            "rows-16k": datacenter_base((10, 40, 40), jitter=0.1),
            "racks-22k": datacenter_base((150, 150), jitter=0.1),
        },
        requests=(
            Request("star-30k", rho=64),
            Request("rows-16k", rho=3, repeat=3),
            Request("rows-16k", rho=14, repeat=3),
            Request("rows-16k", rho=1024, repeat=4),
            Request("racks-22k", rho=1024),
        ),
    ),
    "multi": Workload(
        models={
            "narrow-10k": random_base(10_000, max_capacity=2),
            "wide-50": random_base(50),
            "wide-200": random_base(200),
        },
        requests=(
            Request("narrow-10k", sizes=(3, 3, 2)),
            Request("narrow-10k", sizes=(3, 3, 3, 3)),
            Request("wide-50", sizes=(12, 1)),
            Request("wide-200", sizes=(6, 4, 2, 2)),
        ),
    ),
}
