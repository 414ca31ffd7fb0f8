"""Spans and counts around simqwalk's public calls, recorded from outside.

``Tracer.installed`` replaces the functions each layer exposes (module
attributes of ``simqwalk.cli``, ``simqwalk.community`` and
``simqwalk.hodge``, and ``SimplicialComplex`` methods) with wrappers that
record a span, then puts the originals back.  The library is not modified.
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path
from statistics import median

# Layers whose time is reported as self time: the span minus its children.
SELF_TIMED = {"community.detect": "community.recruit_s", "cli.call": "cli.self_s"}

TIMED = (
    "complexes.parse", "complexes.build", "complexes.lower_neighbors",
    "complexes.boundary", "complexes.adjacency",
    "hodge.laplacian", "hodge.spectrum", "hodge.verify",
    "walk.space", "walk.step", "walk.evolve", "walk.schur", "walk.spectral_avg",
    "community.detect", "community.modularity", "community.exact",
    "cli.call",
)

COUNTED = (
    "complexes.simplices", "complexes.arcs", "hodge.dense_bytes",
    "walk.step_nnz", "walk.evolve_calls", "walk.arc_steps", "walk.evolve_flops",
    "walk.phase_groups", "walk.dense_bytes", "walk.weights_consulted",
    "walk.weights_computed", "community.seeds", "cli.output_bytes", "cli.failed_ops",
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    job: int
    op: int
    end: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class _OpState:
    """What one CLI call has built so far, for hooks later in the same call."""

    complex_: object = None
    space: object = None
    lower_maps: set = field(default_factory=set)


class Tracer:
    """Spans and per-job counts, kept in memory for one benchmark run."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._job = self._op = 0
        self._state = _OpState()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), parent, self._job, self._op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += span.duration

    def count(self, name: str, value: float) -> None:
        self.counts[self._job][name] += value

    @contextmanager
    def op(self, job: int, index: int, dim: int | None):
        """Scope one CLI call; counts the simplices at the call's dimension."""
        self._job, self._op, self._state = job, index, _OpState()
        with self.span("cli.call"):
            yield
        if dim is not None and self._state.complex_ is not None:
            self.count("complexes.simplices", self._state.complex_.num_simplices(dim))

    def _wrap(self, fn, name: str, hook):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, simqwalk):
        """Wrap the layer entry points of an imported ``simqwalk`` package."""
        cli, community, hodge = simqwalk.cli, simqwalk.community, simqwalk.hodge
        complex_cls = simqwalk.complexes.SimplicialComplex
        targets = [
            (cli, "read_edge_list", "complexes.parse", None),
            (cli, "clique_complex", "complexes.build", _keep_complex),
            (complex_cls, "lower_neighbors", "complexes.lower_neighbors", _count_arcs),
            (complex_cls, "boundary_matrix", "complexes.boundary", None),
            (complex_cls, "adjacency", "complexes.adjacency", None),
            (hodge, "hodge_laplacian", "hodge.laplacian", _count_laplacian),
            (cli, "laplacian_spectrum", "hodge.spectrum", None),
            (cli, "verify_chain_identities", "hodge.verify", None),
            (cli, "detect_communities", "community.detect", _count_recruitment),
            (cli, "simplicial_modularity", "community.modularity", None),
            (community, "exact_down_communities", "community.exact", None),
            (community, "exact_up_communities", "community.exact", None),
            (community, "unitary_spectrum", "walk.schur", _count_spectrum),
        ]
        for module in (cli, community):
            targets += [
                (module, "build_walk_space", "walk.space", _keep_space),
                (module, "step_operator", "walk.step", _count_step),
                (module, "finite_time_average", "walk.evolve", _count_evolution),
                (module, "long_time_average_spectral", "walk.spectral_avg", None),
            ]
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, hook in targets:
                setattr(owner, attr, self._wrap(vars(owner)[attr], name, hook))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def job_metrics(self, job: int) -> dict[str, float]:
        """Per-layer totals of one job: inclusive span time, the self time of
        the layers in SELF_TIMED, and the counts."""
        out = {f"{name}_s": 0.0 for name in TIMED}
        out.update({metric: 0.0 for metric in SELF_TIMED.values()})
        for span in self.spans:
            if span.job == job:
                out[f"{span.name}_s"] += span.duration
                if span.name in SELF_TIMED:
                    out[SELF_TIMED[span.name]] += span.self_s
        counts = self.counts[job]
        out.update({name: counts.get(name, 0.0) for name in COUNTED})
        evolve_s = out["walk.evolve_s"]
        out["walk.arc_steps_per_s"] = out["walk.arc_steps"] / evolve_s if evolve_s else 0.0
        computed = out.pop("walk.weights_computed")
        consulted = out.pop("walk.weights_consulted")
        out["walk.weights_used_ratio"] = consulted / computed if computed else 0.0
        return out

    def layer_summary(self) -> dict[str, dict[str, float]]:
        summary: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            row = summary[span.name]
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.self_s
        return dict(summary)

    def dump(self, path: Path, header: dict) -> None:
        spans = [
            {
                "id": i, "name": s.name, "job": s.job, "op": s.op, "parent": s.parent,
                "start": s.start - self.origin, "end": s.end - self.origin, "self_s": s.self_s,
            }
            for i, s in enumerate(self.spans)
        ]
        doc = dict(header, layers=self.layer_summary(), spans=spans)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def medians(per_job: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(job[name] for job in per_job) for name in per_job[0]}


# -- hooks: counts taken at the layer boundaries ---------------------------------


def _keep_complex(tracer, args, kwargs, result):
    tracer._state.complex_ = result


def _count_arcs(tracer, args, kwargs, result):
    complex_, n = args[0], args[1]
    key = (id(complex_), n)
    if key not in tracer._state.lower_maps:  # the map is built once, then cached
        tracer._state.lower_maps.add(key)
        tracer.count("complexes.arcs", sum(len(v) for v in result.values()))


def _count_laplacian(tracer, args, kwargs, result):
    # the up and (for n >= 1) down Laplacians, dense int64 N x N
    size = args[0].num_simplices(args[1])
    tracer.count("hodge.dense_bytes", 8 * size * size * (1 if result.down is None else 2))


def _keep_space(tracer, args, kwargs, result):
    tracer._state.space = result


def _count_step(tracer, args, kwargs, result):
    tracer.count("walk.step_nnz", result.step.nnz)


def _count_evolution(tracer, args, kwargs, result):
    from simqwalk.walk import DEFAULT_TIME_STEPS

    walk, source = args[0], args[1]
    steps = args[2] if len(args) > 2 else kwargs.get("time_steps", DEFAULT_TIME_STEPS)
    arc_steps = walk.space.degree(tuple(source)) * steps
    tracer.count("walk.evolve_calls", 1)
    tracer.count("walk.arc_steps", arc_steps)
    tracer.count("walk.evolve_flops", 8 * walk.step.nnz * arc_steps)  # complex multiply-add


def _count_spectrum(tracer, args, kwargs, result):
    m = args[0].space.m
    tracer.count("walk.phase_groups", len(result.groups))
    tracer.count("walk.dense_bytes", 16 * m * m)  # one dense complex128 copy


def _count_recruitment(tracer, args, kwargs, result):
    """Replay recruitment from the partition: each seed with lower neighbours
    computes a weight for every active simplex, and recruitment consults the
    weights of the simplices still unassigned."""
    complex_, n = args[0], args[1]
    space = tracer._state.space
    active = set(space.active) if space is not None else set()
    unassigned = set(complex_.simplices(n))
    for community in result.communities:
        if len(community) > 1 or community[0] in active:
            tracer.count("community.seeds", 1)
            tracer.count("walk.weights_computed", len(active))
            tracer.count("walk.weights_consulted", len(unassigned & active) - 1)
        unassigned.difference_update(community)
