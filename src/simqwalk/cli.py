"""Command-line front end.

Subcommands operate on an edge-list file (one edge per line, two
whitespace-separated 1-indexed vertex ids, ``#`` comments allowed)::

    simqwalk build      [--max-dim 4] EDGES
    simqwalk spectrum   --dim N [--tolerance 1e-9] EDGES
    simqwalk walk       --dim N --source 1,2 [--time-steps 100] [--method finite] EDGES
    simqwalk detect     --dim N [--time-steps 100] [--method finite]
                        [--threshold strict] EDGES
    simqwalk modularity --dim N --partition PART.json EDGES
    simqwalk verify     --dim N EDGES

Output is JSON by default (``--format csv`` for flat tables, ``--format
dot`` for ``detect``); floats are printed with 12 significant digits and the
bytes are stable across repeated runs.  Exit codes: 1 for validation
problems, 2 for I/O problems, 3 for numerical failures and exhausted memory.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from functools import cache

import numpy as np

from .community import detect_communities, simplicial_modularity
from .complexes import SimplicialComplex, canonical_simplex, clique_complex, read_edge_list
from .errors import InvalidParameterError, NoAdjacencyError, NumericalError, SimplicialError
from .hodge import laplacian_spectrum, verify_chain_identities
from .walk import build_walk_space, finite_time_average, long_time_average_spectral, step_operator

_COLORS = (
    "red", "blue", "green", "orange", "purple",
    "brown", "cyan", "magenta", "gold", "gray",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; we reserve 2 for I/O errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    parser = _Parser(prog="simqwalk", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dim_required=True):
        p.add_argument("input", help="edge-list file")
        p.add_argument("--format", choices=("json", "csv", "dot"), default="json")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        p.add_argument("--max-dim", type=int, default=4,
                       help="largest simplex dimension of the clique complex")
        if dim_required:
            p.add_argument("--dim", type=int, required=True, help="simplex dimension n")

    p = sub.add_parser("build", help="clique complex summary (simplex counts)")
    common(p, dim_required=False)

    p = sub.add_parser("spectrum", help="Laplacian spectrum and kernel dimension")
    common(p)
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="kernel tolerance on eigenvalues")

    p = sub.add_parser("walk", help="time-averaged transition weights from a source simplex")
    common(p)
    p.add_argument("--source", required=True,
                   help="source simplex as comma-joined vertex ids, e.g. 1,2,3")
    p.add_argument("--time-steps", type=int, default=100)
    p.add_argument("--method", choices=("finite", "spectral"), default="finite")

    p = sub.add_parser("detect", help="quantum-walk community detection")
    common(p)
    p.add_argument("--time-steps", type=int, default=100)
    p.add_argument("--method", choices=("finite", "spectral"), default="finite")
    p.add_argument("--threshold", choices=("strict", "geq"), default="strict",
                   help="recruit above the 1/m baseline strictly, or at it")

    p = sub.add_parser("modularity", help="score a partition read from JSON")
    common(p)
    p.add_argument("--partition", required=True,
                   help="JSON file with a 'communities' list of simplex lists")

    p = sub.add_parser("verify", help="exact chain-complex identity checks")
    common(p)
    return parser


# -- serialization ------------------------------------------------------------


def _round(x: float) -> float:
    """``x`` to 12 significant digits, as each float enters a payload."""
    return float(f"{x:.12g}")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _csv_cell(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.12g}"
    if isinstance(cell, (tuple, list)):
        return " ".join(str(v) for v in cell)
    return str(cell)


# -- subcommands --------------------------------------------------------------


def _cmd_build(args, complex_: SimplicialComplex) -> tuple[dict, list[str], list[list], str | None]:
    counts = complex_.counts
    payload = {
        "max_dim": complex_.max_dim,
        "counts": {str(n): counts[n] for n in sorted(counts)},
    }
    rows = [[n, counts[n]] for n in sorted(counts)]
    return payload, ["dim", "count"], rows, None


def _cmd_spectrum(args, complex_: SimplicialComplex) -> tuple[dict, list[str], list[list], str | None]:
    report = laplacian_spectrum(complex_, args.dim, kernel_tol=args.tolerance)
    eigenvalues = list(map(_round, report.eigenvalues.tolist()))
    payload = {"dim": report.n, "eigenvalues": eigenvalues, "betti": report.betti}
    rows = [[report.n, i, x] for i, x in enumerate(eigenvalues)]
    return payload, ["dim", "index", "eigenvalue"], rows, None


def _cmd_walk(args, complex_: SimplicialComplex) -> tuple[dict, list[str], list[list], str | None]:
    try:
        vertices = [int(v) for v in args.source.split(",")]
    except ValueError:
        raise InvalidParameterError(
            f"--source takes comma-joined vertex ids, got {args.source!r}"
        ) from None
    source = canonical_simplex(vertices)
    if args.time_steps < 1:  # the spectral estimator takes no horizon to check it
        raise InvalidParameterError("time_steps must be >= 1")
    walk = step_operator(build_walk_space(complex_, args.dim))
    if args.method == "finite":
        table = finite_time_average(walk, source, args.time_steps)
    else:
        table = long_time_average_spectral(walk, source)
    entries = list(zip(walk.space.active, map(_round, table.weights.tolist())))
    payload = {
        "dim": args.dim,
        "source": table.source,
        "method": args.method,
        "time_steps": args.time_steps if args.method == "finite" else None,
        "table": [{"target": s, "q": q} for s, q in entries],
    }
    rows = [[s, q] for s, q in entries]
    return payload, ["target", "q"], rows, None


def _cmd_detect(args, complex_: SimplicialComplex) -> tuple[dict, list[str], list[list], str | None]:
    partition = detect_communities(
        complex_,
        args.dim,
        method=args.method,
        time_steps=args.time_steps,
        threshold=args.threshold,
    )
    try:
        modularity = _round(simplicial_modularity(complex_, args.dim, partition).modularity)
    except NoAdjacencyError:
        modularity = None  # undefined without lower-adjacent pairs
    payload = {
        "dim": args.dim,
        "method": args.method,
        "time_steps": args.time_steps if args.method == "finite" else None,
        "threshold": args.threshold,
        "communities": partition.communities,
        "modularity": modularity,
    }
    rows = [[i, s] for i, com in enumerate(partition) for s in com]
    dot = _detect_dot(complex_, partition) if args.format == "dot" else None
    return payload, ["community", "simplex"], rows, dot


def _detect_dot(complex_, partition) -> str:
    """DOT rendering: edges colored by community for dimension 1; higher
    dimensions get the plain 1-skeleton plus a community table in comments."""
    labels = partition.labels
    color = lambda i: _COLORS[i % len(_COLORS)]
    lines = ["graph communities {"]
    if partition.n == 1:
        # vertices take the color of the majority of their incident edges
        vertex_votes: dict[int, dict[int, int]] = {}
        for edge, community in labels.items():
            for v in edge:
                votes = vertex_votes.setdefault(v, {})
                votes[community] = votes.get(community, 0) + 1
        for v in sorted(vertex_votes):
            best = min(vertex_votes[v].items(), key=lambda kv: (-kv[1], kv[0]))[0]
            lines.append(f'  {v} [color="{color(best)}"];')
        for edge in complex_.simplices(1):
            lines.append(f'  {edge[0]} -- {edge[1]} [color="{color(labels[edge])}"];')
    else:
        for edge in complex_.simplices(1):
            lines.append(f"  {edge[0]} -- {edge[1]};")
        lines.append(f"  // {partition.n}-simplex communities:")
        for i, com in enumerate(partition):
            members = "; ".join("(" + ",".join(map(str, s)) + ")" for s in com)
            lines.append(f"  // community {i} [{color(i)}]: {members}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _canonical_simplices(community) -> list:
    """A community of the partition file in canonical form: sorted as the rows of one int64 array when
    its simplices are equal-length lists of distinct ints >= 1, else by :func:`canonical_simplex`."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if set(map(type, itertools.chain.from_iterable(community))) == {int}:
            rows = np.sort(np.array(community, dtype=np.int64), axis=1)
            if rows.size and (rows[:, 0] >= 1).all() and (np.diff(rows, axis=1) > 0).all():
                return list(map(tuple, rows.tolist()))
    return [canonical_simplex(simplex) for simplex in community]


def _cmd_modularity(args, complex_: SimplicialComplex) -> tuple[dict, list[str], list[list], str | None]:
    try:
        with open(args.partition, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"partition file is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise OSError(f"{args.partition} is not UTF-8 text: {exc.reason}") from None
    try:
        communities = [_canonical_simplices(community) for community in doc["communities"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(
            f"partition JSON must carry a 'communities' list of simplex lists: {exc}"
        ) from exc
    report = simplicial_modularity(complex_, args.dim, communities)
    modularity, contributions = _round(report.modularity), list(map(_round, report.contributions))
    payload = {
        "dim": report.n,
        "arc_count": report.arc_count,
        "modularity": modularity,
        "contributions": contributions,
    }
    rows = [[i, c] for i, c in enumerate(contributions)]
    rows.append(["total", modularity])
    return payload, ["community", "contribution"], rows, None


def _cmd_verify(args, complex_: SimplicialComplex) -> tuple[dict, list[str], list[list], str | None]:
    report = verify_chain_identities(complex_, args.dim)
    payload = {
        "dim": report.n,
        "boundary_product_zero": report.boundary_product_zero,
        "up_down_zero": report.up_down_zero,
        "down_up_zero": report.down_up_zero,
        "all_hold": report.all_hold,
    }
    rows = [[identity, holds] for identity, holds in payload.items() if identity != "dim"]
    return payload, ["identity", "holds"], rows, None


_COMMANDS = {
    "build": _cmd_build,
    "spectrum": _cmd_spectrum,
    "walk": _cmd_walk,
    "detect": _cmd_detect,
    "modularity": _cmd_modularity,
    "verify": _cmd_verify,
}


def run(args: argparse.Namespace) -> int:
    if args.format == "dot" and args.command != "detect":
        raise InvalidParameterError("dot output is only available for 'detect'")
    complex_ = clique_complex(read_edge_list(args.input), max_dim=args.max_dim)
    payload, header, rows, dot = _COMMANDS[args.command](args, complex_)
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        _emit(_csv_text(header, rows), args.output)
    else:
        _emit(dot, args.output)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
    except NumericalError as exc:
        print(f"simqwalk: numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"simqwalk: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except SimplicialError as exc:
        print(f"simqwalk: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"simqwalk: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
