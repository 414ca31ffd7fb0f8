"""The benchmark's workloads: seeded inputs, the CLI calls of one job, and
the check each call's output must pass.

A job is a fixed list of ``simqwalk`` command lines.  ``prepare`` writes the
job's input files from the workload seed and returns the calls; it is the
whole of the benchmark's set-up besides importing the library.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

GOLDEN = Path(__file__).resolve().parent / "golden"

# The planted structure is drawn once, with this seed, so that every workload
# seed runs a graph of the same size (P240: N_2 = 1,574, m = 15,430; P160:
# N_1 = 1,042, N_2 = 1,095).  The workload seed relabels the vertices and
# reorders the edge file.  Redrawing the structure per seed moved one P240
# detection between 4.5 s and 8.6 s, which would drown any change in the code.
STRUCTURE_SEED = 0
P_IN, P_OUT = 0.3, 0.01
MAX_DIM = 3
TIME_STEPS = 100


@dataclass(frozen=True)
class Op:
    """One CLI call and the check of its standard output.

    ``check`` returns None when the output is right, else what is wrong.
    """

    argv: tuple[str, ...]
    check: Callable[[str], str | None]

    @property
    def dim(self) -> int | None:
        return int(self.argv[self.argv.index("--dim") + 1]) if "--dim" in self.argv else None


@dataclass(frozen=True)
class Prepared:
    ops: tuple[Op, ...]
    graph: str
    truth: "Reference"

    def stats(self) -> dict:
        """The input's size, counted by the benchmark rather than the library."""
        dims = sorted({op.dim for op in self.ops if op.dim})
        return self.truth.stats(dims)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str
    prepare: Callable[[int, Path], Prepared]


def planted_partition(blocks: int, size: int, p_in: float, p_out: float, rng) -> list[tuple[int, int]]:
    """Edges of a planted-partition graph on vertices 1..blocks*size; vertex
    v lies in block (v - 1) // size, and each pair is an edge with
    probability p_in inside a block and p_out across blocks."""
    n = blocks * size
    return [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < (p_in if (u - 1) // size == (v - 1) // size else p_out)
    ]


def _shuffled_edge_file(edges, path: Path, rng) -> list[tuple[int, int]]:
    """Write the edges in a seeded order and orientation; return them as written."""
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    path.write_text("".join(f"{u} {v}\n" for u, v in out), encoding="utf-8")
    return out


def _relabeled_planted(blocks: int, size: int, seed: int, path: Path):
    """P{blocks*size}: the fixed planted structure under a seeded relabeling.

    Returns the edges as written and each vertex's planted block.
    """
    base = planted_partition(blocks, size, P_IN, P_OUT, random.Random(STRUCTURE_SEED))
    rng = random.Random(seed)
    labels = list(range(1, blocks * size + 1))
    rng.shuffle(labels)
    block = {labels[v - 1]: (v - 1) // size for v in range(1, blocks * size + 1)}
    edges = [(labels[u - 1], labels[v - 1]) for u, v in base]
    return _shuffled_edge_file(edges, path, rng), block


class Reference:
    """The benchmark's own view of a graph's clique complex, computed on
    first use (for the walk workloads, after the first timed job)."""

    def __init__(self, edges, max_dim: int):
        self._edges = edges
        self._max_dim = max_dim
        self._cliques = None
        self._lower: dict[int, ref.LowerAdjacency] = {}

    @property
    def cliques(self) -> dict[int, set[tuple[int, ...]]]:
        if self._cliques is None:
            self._cliques = ref.cliques(self._edges, self._max_dim)
        return self._cliques

    def lower(self, n: int) -> ref.LowerAdjacency:
        if n not in self._lower:
            self._lower[n] = ref.lower_adjacency(self.cliques[n])
        return self._lower[n]

    def stats(self, dims) -> dict:
        return {
            "vertices": len(self.cliques[0]),
            "edges": len(self.cliques[1]),
            "by_dim": {
                n: {
                    "simplices": len(self.cliques[n]),
                    "arcs": self.lower(n).arcs,
                    "step_nnz": self.lower(n).step_nnz,
                }
                for n in dims
            },
        }


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_partition(doc: dict, truth: Reference, n: int) -> tuple[str | None, dict]:
    """Coverage and modularity of a ``detect`` payload; returns the labels too."""
    communities = [[tuple(s) for s in com] for com in doc["communities"]]
    label = {s: i for i, com in enumerate(communities) for s in com}
    if sum(map(len, communities)) != len(label) or set(label) != truth.cliques[n]:
        return f"dimension-{n} partition does not cover every simplex exactly once", label
    own = ref.modularity(truth.lower(n), label)
    if not _close(doc["modularity"], own):
        return f"modularity {doc['modularity']} differs from recomputed {own}", label
    return None, label


# -- karate-cli ------------------------------------------------------------------

# Modularity of the paper's reference partitions.  The infinite-time estimator
# reaches both at n = 1, 2; the finite one (T = 100) reaches Q2 but gives
# 0.4308 at n = 1, which its golden file pins instead.
PAPER_Q = {(1, "spectral"): 0.434, (2, "finite"): 0.515, (2, "spectral"): 0.515}


def _karate_check(golden: str, truth: Reference, n: int, method: str):
    def check(out: str) -> str | None:
        if out != golden:
            return f"detect --dim {n} --method {method} differs from its golden output"
        doc = json.loads(out)
        problem, _ = _check_partition(doc, truth, n)
        if problem:
            return problem
        paper = PAPER_Q.get((n, method))
        if paper is not None and abs(doc["modularity"] - paper) > 1e-3:
            return f"modularity {doc['modularity']} is not the paper's {paper}"
        return None

    return check


def _prepare_karate(seed: int, workdir: Path) -> Prepared:
    from simqwalk import karate_club_edges

    rng = random.Random(seed)
    path = workdir / "karate.txt"
    edges = _shuffled_edge_file(karate_club_edges(), path, rng)
    truth = Reference(edges, 4)
    ops = []
    for n in (1, 2, 3, 4):
        for method in ("finite", "spectral"):
            golden = (GOLDEN / f"karate_detect_n{n}_{method}.json").read_text(encoding="utf-8")
            argv = ("detect", "--dim", str(n), "--method", method,
                    "--time-steps", str(TIME_STEPS), str(path))
            ops.append(Op(argv, _karate_check(golden, truth, n, method)))
    rng.shuffle(ops)
    return Prepared(tuple(ops), "karate", truth)


# -- planted-triangles -------------------------------------------------------------


def _planted_detect_check(truth: Reference, block: dict[int, int]):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        problem, label = _check_partition(doc, truth, 2)
        if problem:
            return problem
        # Purity: each planted block's own triangles form one community, and
        # no two blocks share one.  Triangles across blocks may go anywhere.
        home: dict[int, set[int]] = {}
        for s, c in label.items():
            blocks = {block[v] for v in s}
            if len(blocks) == 1:
                home.setdefault(blocks.pop(), set()).add(c)
        if any(len(cs) != 1 for cs in home.values()):
            return "a planted block's triangles are split across communities"
        if len(set.union(*home.values())) != len(home):
            return "two planted blocks share a community"
        return None

    return check


def _prepare_planted_triangles(seed: int, workdir: Path) -> Prepared:
    path = workdir / "p240.txt"
    edges, block = _relabeled_planted(6, 40, seed, path)
    truth = Reference(edges, MAX_DIM)
    argv = ("detect", "--dim", "2", "--max-dim", str(MAX_DIM), "--method", "finite",
            "--time-steps", str(TIME_STEPS), str(path))
    return Prepared((Op(argv, _planted_detect_check(truth, block)),), "P240", truth)


# -- hodge-structure ---------------------------------------------------------------


def _build_check(truth: Reference):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        own = {str(n): len(s) for n, s in truth.cliques.items()}
        if doc["counts"] != own or doc["max_dim"] != max(truth.cliques):
            return f"simplex counts {doc['counts']} differ from enumerated {own}"
        return None

    return check


def _spectrum_check(truth: Reference, n: int):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        eig = doc["eigenvalues"]
        counts = {k: len(s) for k, s in truth.cliques.items()}
        if doc["dim"] != n or len(eig) != counts[n]:
            return f"spectrum --dim {n} has {len(eig)} eigenvalues for {counts[n]} simplices"
        if any(b < a for a, b in zip(eig, eig[1:])) or eig[0] < -1e-8:
            return f"spectrum --dim {n} is not ascending and non-negative"
        trace = ref.laplacian_trace(counts, n)
        if not _close(sum(eig), trace, 1e-7):
            return f"spectrum --dim {n} sums to {sum(eig)}, the Laplacian trace is {trace}"
        kernel = sum(1 for x in eig if x < 1e-9)
        if doc["betti"] != kernel:
            return f"betti {doc['betti']} disagrees with {kernel} zero eigenvalues"
        if n == 0:
            components = ref.component_count([v for (v,) in truth.cliques[0]], truth.cliques[1])
            if doc["betti"] != components:
                return f"betti_0 {doc['betti']} is not the {components} connected components"
        return None

    return check


def _verify_check(n: int):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        flags = ("boundary_product_zero", "up_down_zero", "down_up_zero", "all_hold")
        if doc["dim"] != n or not all(doc[f] is True for f in flags):
            return f"verify --dim {n} reports a broken chain identity: {doc}"
        return None

    return check


def _modularity_check(truth: Reference, n: int, label: dict):
    def check(out: str) -> str | None:
        doc = json.loads(out)
        adj = truth.lower(n)
        own = ref.modularity(adj, label)
        if doc["dim"] != n or doc["arc_count"] != adj.arcs:
            return f"modularity --dim {n} counts {doc['arc_count']} arcs, not {adj.arcs}"
        if not _close(doc["modularity"], own) or not _close(sum(doc["contributions"]), own):
            return f"modularity --dim {n} is {doc['modularity']}, recomputed {own}"
        if len(doc["contributions"]) != len(set(label.values())):
            return f"modularity --dim {n} scores {len(doc['contributions'])} communities"
        return None

    return check


def _prepare_hodge_structure(seed: int, workdir: Path) -> Prepared:
    path = workdir / "p160.txt"
    edges, block = _relabeled_planted(4, 40, seed, path)
    truth = Reference(edges, MAX_DIM)
    common = ("--max-dim", str(MAX_DIM))
    ops = [Op(("build", *common, str(path)), _build_check(truth))]
    ops += [Op(("spectrum", "--dim", str(n), *common, str(path)), _spectrum_check(truth, n))
            for n in (0, 1, 2)]
    ops += [Op(("verify", "--dim", str(n), *common, str(path)), _verify_check(n)) for n in (1, 2)]
    for n in (1, 2):
        # The planted-block partition: a simplex joins the block of its
        # smallest vertex id, so simplices across blocks are covered too.
        simplices = sorted(truth.cliques[n])
        label = {s: block[s[0]] for s in simplices}
        part = workdir / f"p160_blocks_n{n}.json"
        communities = [[list(s) for s in simplices if label[s] == b] for b in sorted(set(label.values()))]
        part.write_text(json.dumps({"communities": communities}), encoding="utf-8")
        ops.append(Op(("modularity", "--dim", str(n), "--partition", str(part), *common, str(path)),
                      _modularity_check(truth, n, label)))
    return Prepared(tuple(ops), "P160", truth)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "karate-cli",
            "the paper's own benchmark: detect on the karate fixture for n = 1..4 with "
            "both estimators, outputs pinned byte for byte",
            "walk.schur (dense Schur spectrum, m = 1,056 at n = 1); evolution is about 6%",
            _prepare_karate,
        ),
        Workload(
            "planted-triangles",
            "finite detection of triangles (n = 2, T = 100) on P240; over 97% of a job is "
            "evolution, so it isolates the walk kernel",
            "walk.evolve (m = 15,430 arcs, 6 seeds); no Schur, no Hodge",
            _prepare_planted_triangles,
        ),
        Workload(
            "hodge-structure",
            "build, spectrum, verify and modularity on P160: the non-walk commands, where "
            "dense Hodge products dominate and a walk change must show no effect",
            "hodge.verify (dense int64 N x N products, N_1 = 1,042, N_2 = 1,095); no walk",
            _prepare_hodge_structure,
        ),
    )
}


def setup(src: Path, name: str, seed: int, workdir: Path) -> Prepared:
    """Everything before the first job: import the library from ``src`` and
    write the workload's inputs."""
    sys.path.insert(0, str(src))
    import simqwalk.cli  # noqa: F401  (the import cost is part of set-up)

    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].prepare(seed, workdir)
