"""The benchmark's workloads: seeded inputs, the jobs that use them, and checks.

Each workload turns a seed into plain data (diagram literals, edge tuples,
coefficient maps, class compositions, CLI argument lists), then into the
engine objects its jobs take.  A job calls the engine through module
attributes looked up at call time, so a traced run sees every call.  The
checks compare outputs with ``oracle`` (which shares no code with the
engine) or with digests recorded from the engine's own CLI and exports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import oracle

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _edges_map(element) -> dict:
    return {d.edges: q for d, q in element.terms.items()}


class Arith:
    """Small arithmetic requests on a hot pool of diagrams at (4,3) and (5,3).

    Every block of 100 jobs holds the same kinds in the same counts, shuffled
    by the seed, so each run sees the same mix.  The cheap ``mul`` path is
    60%, which puts the median inside its latency band; ``unit`` jobs (the
    256-term unit times a diagram) are the slowest kind and make up 2%,
    which puts the 99th percentile in the middle of theirs.
    """

    name = "arith"
    fresh_engine = False
    MIX = {"mul": 60, "prod": 16, "unit": 2, "x": 10, "embed": 12}

    def __init__(self, tiny: bool):
        self.shapes = [(2, 2), (3, 2)] if tiny else [(4, 3), (5, 3)]
        self.pool_size = 8 if tiny else 48
        self.max_terms = 4 if tiny else 12
        self.blocks = 3 if tiny else 20

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        pools = {shape: [oracle.random_planar(rng, *shape) for _ in range(self.pool_size)]
                 for shape in self.shapes}
        small = self.shapes[0]

        def element(shape):
            chosen = rng.sample(range(self.pool_size), rng.randint(1, self.max_terms))
            terms: dict = {}
            for i in chosen:
                edges = pools[shape][i]
                q = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 3))
                terms[edges] = terms.get(edges, Fraction(0)) + q
            return shape, {e: q for e, q in terms.items() if q} or {pools[shape][0]: Fraction(1)}

        specs = []
        for _ in range(self.blocks):
            block = [kind for kind, count in self.MIX.items() for _ in range(count)]
            rng.shuffle(block)
            for kind in block:
                shape = rng.choice(self.shapes)
                if kind == "mul":
                    a, b = rng.choice(pools[shape]), rng.choice(pools[shape])
                    specs.append(("mul", shape, oracle.literal(*shape, a), oracle.literal(*shape, b)))
                elif kind == "prod":
                    specs.append(("prod", element(shape), element(shape)))
                elif kind == "unit":
                    specs.append(("unit", (small, {rng.choice(pools[small]): Fraction(1)})))
                elif kind == "x":
                    specs.append(("x", shape, rng.choice(pools[shape])))
                else:
                    specs.append(("embed", element(small)))
        return specs

    def prepare(self, engine, specs) -> list:
        def elem(spec):
            (n, c), terms = spec
            return engine.algebra.AlgebraElement(n, c, {engine.diagrams.Diagram(n, c, e): q for e, q in terms.items()})

        jobs = []
        for spec in specs:
            kind = spec[0]
            if kind == "mul":
                jobs.append((_mul, (spec[2], spec[3])))
            elif kind == "prod":
                jobs.append((_prod, (elem(spec[1]), elem(spec[2]))))
            elif kind == "unit":
                jobs.append((_unit, (elem(spec[1]),)))
            elif kind == "x":
                (n, c), edges = spec[1], spec[2]
                jobs.append((_x_round_trip, (engine.diagrams.Diagram(n, c, edges),)))
            else:
                jobs.append((_embed, (elem(spec[1]),)))
        return jobs

    def output_bytes(self, output) -> int:
        return 0

    def check(self, spec, output) -> bool:
        kind = spec[0]
        if kind == "mul":
            _, (n, c), a, b = spec
            return output == oracle.literal(n, c, oracle.compose(oracle.parse_literal(a), oracle.parse_literal(b)))
        if kind == "prod":
            return _edges_map(output) == oracle.bilinear(spec[1][1], spec[2][1])
        if kind == "unit":
            return _edges_map(output) == spec[1][1]
        if kind == "x":
            return {d.edges: q for d, q in output.items()} == {spec[2]: 1}
        (n, c), terms = spec[1]
        return _edges_map(output) == oracle.embed(n, c, terms)


def _mul(engine, a, b):
    d = engine.diagrams
    return d.format_diagram(d.multiply(d.parse_diagram(a), d.parse_diagram(b)))


def _prod(engine, a, b):
    return a * b


def _unit(engine, g):
    return engine.algebra.identity(g.n, g.c) * g


def _x_round_trip(engine, d):
    return engine.algebra.to_x_coordinates(engine.algebra.x_of(d))


def _embed(engine, g):
    return engine.algebra.embed(g)


class Modules:
    """Representation queries at n in {5,6,7}, c in {2,3}.

    A round asks about every class of every shape once, in seeded order, so
    each run sees the same classes; the three acting diagrams per query are
    random.  Every 460th query also exports the character table and the
    tower, cycling through the shapes; the 8 rounds of the job list hold 6
    exports, one per shape, so the export cost is the same in every run.
    """

    name = "modules"
    fresh_engine = False
    ACTIONS = 3

    def __init__(self, tiny: bool):
        self.shapes = [(n, c) for n in ((2, 3) if tiny else (5, 6, 7)) for c in ((1, 2) if tiny else (2, 3))]
        self.rounds = 2 if tiny else 8
        self.export_every = 7 if tiny else 460

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        classes = [(n, c, sizes) for n, c in self.shapes for sizes in oracle.compositions(n, c + 1)]
        specs = []
        for _ in range(self.rounds):
            rng.shuffle(classes)
            for n, c, sizes in classes:
                actions = []
                for _ in range(self.ACTIONS):
                    top = oracle.random_parts(rng, n, c)
                    actions.append((top, oracle.random_parts(rng, n, c, [len(p) for p in top])))
                q = len(specs)
                export = None
                if q % self.export_every == self.export_every - 1:
                    export = self.shapes[(q // self.export_every) % len(self.shapes)]
                specs.append((n, c, sizes, actions, export))
        return specs

    def prepare(self, engine, specs) -> list:
        profile = engine.diagrams.Profile
        label = engine.representations.IrrepLabel
        return [(_query, (label(sizes), [(profile(n, c, top), profile(n, c, bottom)) for top, bottom in actions], export))
                for n, c, sizes, actions, export in specs]

    def output_bytes(self, output) -> int:
        return 0

    def check(self, spec, output) -> bool:
        n, c, sizes, actions, export = spec
        dim, results, children, exports = output
        if dim != oracle.multinomial(sizes) or children != oracle.restriction(sizes):
            return False
        for (top, bottom), (fixed, trace, value) in zip(actions, results):
            expected = oracle.character(c, oracle.profile_edges(top, bottom), sizes)
            if not fixed == trace == value == expected:
                return False
        if export is not None:
            digests = {kind: sha256(payload) for kind, payload in zip(("csv", "dot", "json"), exports)}
            return digests == EXPECTED["modules"][f"{export[0]},{export[1]}"]
        return exports is None


def _query(engine, label, profiles, export):
    r = engine.representations
    space = r.label_module(label)
    results = []
    for top, bottom in profiles:
        d = engine.diagrams.from_profiles(top, bottom)
        column = r.diagram_action(d, space)
        fixed = sum(1 for j, i in enumerate(column) if i == j)
        results.append((fixed, r.action_trace(d, space), r.character(d, label)))
    children = [child.sizes for child in r.restriction_decomposition(space)]
    exports = None
    if export is not None:
        n, c = export
        graph = engine.bratteli.build(c, n)
        exports = (r.character_table_csv(n, c), engine.bratteli.emit_dot(graph), engine.bratteli.emit_json(graph))
    return space.dimension, results, children, exports


class Sweep:
    """The exhaustive CLI path: default ``verify --json``, then ``enumerate -n 6 -c 3``.

    Both run through ``cli.main`` in one process, as one user session, with
    stdout captured in memory and digested after the command returns.
    Every pass starts from a freshly imported engine, so its caches start
    empty and only grow.
    The commands are fixed: the seed has no inputs to choose here.
    """

    name = "sweep"
    fresh_engine = True

    def __init__(self, tiny: bool):
        self.enumerate_shape = (3, 2) if tiny else (6, 3)
        verify = ["verify", "--n-cap", "2", "--c-cap", "1", "--json"] if tiny else ["verify", "--json"]
        n, c = self.enumerate_shape
        self.commands = [verify, ["enumerate", "-n", str(n), "-c", str(c)]]

    def generate(self, seed: int) -> list:
        return [list(argv) for argv in self.commands]

    def prepare(self, engine, specs) -> list:
        return [(_cli, (argv,)) for argv in specs]

    def output_bytes(self, output) -> int:
        return len(output[1].encode("utf-8"))

    def check(self, spec, output) -> bool:
        code, text = output
        if code != 0 or sha256(text.encode("utf-8")) != EXPECTED["sweep"].get(" ".join(spec)):
            return False
        if spec[0] == "verify":
            return json.loads(text).get("ok") is True
        return text.count("\n") == oracle.cardinality(*self.enumerate_shape)


def _cli(engine, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = engine.cli.main(argv)
    return code, buffer.getvalue()


WORKLOADS = {cls.name: cls for cls in (Arith, Modules, Sweep)}
