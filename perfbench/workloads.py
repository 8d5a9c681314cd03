"""The four benchmark workloads.

Every workload drives planeforest only through its public functions and
``cli.main``; the library receives nothing but the inputs generated here
from the workload seed.  Library functions are always looked up on their
module at call time, so the tracer's wrappers see the calls.

One top-level call is one *call* of the timed loop; ``reps_per_call`` says
how many replicates it completes.  Calls 0 .. ``prefix`` - 1 are run in
every mode: their outputs give the run's SHA-256 fingerprint and their
traced replays give the exact counters, so both repeat for a given seed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from collections import Counter

import numpy as np

from planeforest import cli, degseq, forest_codec, lattice_paths, limit_sim, realtree, sampler, verify
from planeforest.errors import CapExceeded


def call_seed(seed: int, r: int) -> int:
    """Seed handed to the library for call r of a run with workload seed ``seed``."""
    return seed * 100_000 + r


def _report_digest(text: str) -> bytes:
    """An experiment report without its wall-clock ``runtime`` field."""
    obj = json.loads(text)
    obj.pop("runtime", None)
    return json.dumps(obj, sort_keys=True).encode()


def _in_unit_interval(x) -> bool:
    return isinstance(x, float) and 0.0 <= x <= 1.0


class Workload:
    name = ""
    reps_per_call = 1
    prefix = 2

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.counters: Counter[str] = Counter()
        self.tracer = None  # set by the traced phase

    def setup(self) -> None:
        """Build the inputs; timed as part of ``setup_s``."""

    def run(self, r: int, tag: str):
        """One top-level call; returns its output.  Raises on failure."""
        raise NotImplementedError

    def digest(self, out) -> bytes:
        """Canonical bytes of an output, compared across replays and runs."""
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Problems found in one output (run outside the timed phase)."""
        return []

    def replay(self, r: int, out) -> list[str]:
        """Traced phase only: replay call r through public stage functions."""
        return []

    def probe(self) -> list[str] | None:
        """Known-defect probe, once per run: the failures it saw, or None
        for a workload without one."""
        return None

    def hooks(self) -> dict:
        """Tracer hooks (span name -> callback) that count exact work."""
        return {}

    def _in_prefix(self) -> bool:
        return self.tracer is not None and 0 <= self.tracer.rep_id < self.prefix

    def _walk_statistics(self, s, seed: int, i: int):
        ws = sampler.walk_statistics(s, sampler.substream(seed, i))
        if self._in_prefix():
            nbytes = sum(a.nbytes for a in (ws.walk, ws.perm, ws.boundaries, ws.sizes,
                                           ws.ranked_sizes, ws.ranked_order))
            key = "sampler.kernel_bytes"
            self.counters[key] = max(self.counters[key], nbytes)
        return ws


class Summary(Workload):
    """``planeforest verify tau --n 1000000 --cn 125`` through ``cli.main``."""

    name = "summary_1e6"
    N, CN, REPS = 1_000_000, 125, 25
    reps_per_call = REPS

    def setup(self):
        self.s = degseq.make_degree_sequence(degseq.geometric_profile(), self.N, self.CN, self.seed)

    def run(self, r, tag):
        path = os.path.join(self.tmp, f"summary-{r}-{tag}.json")
        rc = cli.main(["verify", "tau", "--p", "geometric:0.5", "--n", str(self.N),
                       "--cn", str(self.CN), "--reps", str(self.REPS),
                       "--seed", str(call_seed(self.seed, r)), "--out", path])
        if rc not in (cli.EXIT_OK, cli.EXIT_CRITERION):
            raise RuntimeError(f"verify tau exited {rc}")
        with open(path) as fh:
            text = fh.read()
        os.remove(path)
        # Exit 2 is a statistical verdict, not a failure; it is only counted.
        if r < self.prefix and tag == "timed":
            self.counters["verify.criterion_exits"] += rc == cli.EXIT_CRITERION
        return text

    def digest(self, out):
        return _report_digest(out)

    def check(self, out):
        rep = json.loads(out)
        problems = []
        if rep.get("name") != "tau" or rep["params"].get("reps") != self.REPS:
            problems.append(f"report is not a {self.REPS}-replicate tau report")
        stats = rep.get("stats", {})
        for key in ("ks_small_mass", "ks_tau"):
            if not _in_unit_interval(stats.get(key)):
                problems.append(f"{key}={stats.get(key)!r} outside [0, 1]")
        return problems

    def replay(self, r, out):
        """Replicate by replicate through ``sampler.walk_statistics``; the KS
        statistics must match the report's."""
        seed = call_seed(self.seed, r)
        n, cn = self.N, self.CN
        small = np.empty(self.REPS)
        taus = np.empty(self.REPS)
        for i in range(self.REPS):
            ws = self._walk_statistics(self.s, seed, i)
            small[i] = (n - ws.sizes.max()) / cn**2
            taus[i] = ws.tau_n / cn**2
        sigma = degseq.limit_sigma(self.s)
        cdf = lambda t: limit_sim.tau_cdf(np.maximum(t, 1e-300), sigma)
        got = {"ks_small_mass": verify.ks_one_sample(small, cdf),
               "ks_tau": verify.ks_one_sample(taus, cdf)}
        stats = json.loads(out)["stats"]
        return [f"replayed {k}={v!r} but the report has {stats.get(k)!r}"
                for k, v in got.items() if abs(v - stats.get(k, np.inf)) > 1e-12]


class Forest(Workload):
    """``planeforest sample forest --format json --count 1`` through ``cli.main``."""

    name = "forest_1e6"
    N, C = 1_000_000, 125

    def setup(self):
        self.s = degseq.make_degree_sequence(degseq.geometric_profile(), self.N, self.C, self.seed)
        self.s_path = os.path.join(self.tmp, "s.json")
        with open(self.s_path, "w") as fh:
            fh.write(self.s.to_json())

    def _path(self, r, tag):
        return os.path.join(self.tmp, f"forest-{r}-{tag}.json")

    def run(self, r, tag):
        path = self._path(r, tag)
        rc = cli.main(["sample", "forest", "--degseq", self.s_path, "--seed",
                       str(call_seed(self.seed, r)), "--count", "1", "--format", "json",
                       "--out", path])
        if rc != cli.EXIT_OK:
            raise RuntimeError(f"sample forest exited {rc}")
        if r < self.prefix and tag == "timed":
            self.counters["forest_codec.json_bytes"] += os.path.getsize(path)
        return path

    def digest(self, out):
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).digest()

    def check(self, out):
        with open(out) as fh:
            trees = json.load(fh)["trees"]
        s = self.s
        sizes = np.array([len(t) for t in trees], dtype=np.int64)
        problems = []
        if len(trees) != s.c:
            problems.append(f"{len(trees)} trees, expected c = {s.c}")
        if not len(trees) or sizes.min() < 1 or sizes.sum() != s.n:
            return problems + [f"tree sizes {sizes.sum()} do not sum to n = {s.n}"]
        lex = np.fromiter((d for t in trees for d in t), dtype=np.int64, count=s.n)
        if {i: int(k) for i, k in enumerate(np.bincount(lex)) if k} != s.counts:
            problems.append("degree histogram differs from s.counts")
        # Tree t's depth-first walk, relative to its start, must stay >= 0
        # until its last node and end at exactly -1 there.
        walk = np.cumsum(lex - 1)
        ends = np.cumsum(sizes) - 1
        starts = ends - sizes + 1
        base = np.concatenate(([0], walk[ends[:-1]]))
        rel = walk - np.repeat(base, sizes)
        if not np.all(rel[ends] == -1):
            problems.append("a lex sequence does not close at its end")
        rel[ends] = 0
        if np.minimum.reduceat(rel, starts).min() < 0:
            problems.append("a lex sequence closes before its end")
        return problems

    def replay(self, r, out):
        """shuffle_degrees -> walk_from_degrees -> mcf_from_walk -> rotation
        -> to_json on the call's substream; the JSON must equal the file."""
        rng = sampler.substream(call_seed(self.seed, r), 0)
        walk = lattice_paths.walk_from_degrees(sampler.shuffle_degrees(self.s, rng))
        trees = forest_codec.mcf_from_walk(walk).forest.trees
        k = int(rng.integers(len(trees)))
        text = forest_codec.PlaneForest(trees[k:] + trees[:k]).to_json() + "\n"
        if hashlib.sha256(text.encode()).digest() != self.digest(out):
            return ["replayed forest differs from the written one"]
        return []

    def probe(self):
        """``contour_function`` on the giant tree of the first forest."""
        with open(self._path(0, "timed")) as fh:
            giant = max(json.load(fh)["trees"], key=len)
        tree = forest_codec.PlaneTree(tuple(giant))
        try:
            g = realtree.contour_function(tree)
        except Exception as exc:  # the probe counts every failure, RecursionError today
            return [f"contour_function on the {len(giant)}-node giant tree: "
                    f"{type(exc).__name__}: {exc}"]
        if len(g.values) != 2 * len(giant) - 1:
            return [f"contour has {len(g.values)} points, expected {2 * len(giant) - 1}"]
        return []


class LimitSizes(Workload):
    """``verify.experiment_tree_sizes`` at n = 2e5, one forest replicate per
    ten limit replicates."""

    name = "limit_sizes_2e5"
    N, CN, TOP_J, DT = 200_000, 71, 2, 1e-4
    FOREST_REPS = 10
    LIMIT_REPS = 10 * FOREST_REPS
    reps_per_call = LIMIT_REPS

    def setup(self):
        self.p = degseq.geometric_profile()
        self.s = degseq.make_degree_sequence(self.p, self.N, self.CN, self.seed)

    def run(self, r, tag):
        report = verify.experiment_tree_sizes(
            self.p, self.N, self.CN, reps=self.FOREST_REPS, top_j=self.TOP_J,
            seed=call_seed(self.seed, r), limit_reps=self.LIMIT_REPS, dt=self.DT)
        text = report.to_json()
        if r < self.prefix and tag == "timed":
            self.counters["verify.censored_limit_reps"] += json.loads(text)["stats"]["censored_limit_reps"]
        return text

    def digest(self, out):
        return _report_digest(out)

    def check(self, out):
        rep = json.loads(out)
        problems = []
        if rep["passed"].get("sizes_weakly_decreasing") is not True:
            problems.append("ranked sizes are not weakly decreasing")
        censored = rep["stats"].get("censored_limit_reps")
        if not isinstance(censored, int) or censored < 0:
            problems.append(f"censored count {censored!r} not recorded")
        if not all(_in_unit_interval(k) for k in rep["stats"].get("ks_per_coordinate", [None])):
            problems.append("a KS statistic lies outside [0, 1]")
        return problems

    def replay(self, r, out):
        """The forest side through ``sampler.walk_statistics``; its mean
        small-tree mass must match the report's."""
        seed = call_seed(self.seed, r)
        sums = np.empty(self.FOREST_REPS)
        for i in range(self.FOREST_REPS):
            ws = self._walk_statistics(self.s, seed, i)
            sums[i] = (self.N - ws.sizes.max()) / self.CN**2
        want = json.loads(out)["stats"]["sum_statistic_mean"]
        if abs(float(sums.mean()) - want) > 1e-12:
            return [f"replayed sum statistic {sums.mean()!r} but the report has {want!r}"]
        return []

    def hooks(self):
        return {"limit_sim.simulate_to_hit": self._count_simulation}

    def _count_simulation(self, args, kwargs, result, exc):
        if not self._in_prefix():
            return
        c = self.counters
        c["limit_sim.attempts"] += 1
        if isinstance(exc, CapExceeded):
            # A censored draw runs exactly int(t_cap / dt) steps before giving up.
            call = inspect.signature(limit_sim.simulate_to_hit).bind(*args, **kwargs)
            call.apply_defaults()
            steps = int(call.arguments["t_cap"] / call.arguments["dt"])
            c["limit_sim.censored"] += 1
            c["limit_sim.censored_steps"] += steps
        elif result is not None:
            steps = len(result[0].values) - 1
        else:
            return
        c["limit_sim.steps"] += steps


def _partitions(m: int, max_parts: int, smallest: int = 1):
    if m == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(smallest, m + 1):
        for rest in _partitions(m - first, max_parts - 1, first):
            yield (first,) + rest


def _distinct_permutations(items: list[int]):
    """Distinct permutations of a multiset in lexicographic order."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _plane_tree_lex(max_n: int):
    def rec(prefix, balance, remaining):
        if remaining == 0:
            if balance == -1:
                yield tuple(prefix)
            return
        for d in range(remaining):
            if balance + d - 1 >= 0 or remaining == 1:
                prefix.append(d)
                yield from rec(prefix, balance + d - 1, remaining - 1)
                prefix.pop()

    for n in range(1, max_n + 1):
        yield from rec([], 0, n)


def _bridge_values(max_len: int):
    """Every path of length <= max_len from 0 to -1 with increments >= -1."""
    def rec(values, remaining):
        if remaining == 0:
            if values[-1] == -1:
                yield tuple(values)
            return
        # Steps are >= -1, so after this step the path must be at most
        # (remaining - 1) - 1 to still end at -1.
        for step in range(-1, remaining - 1 - values[-1]):
            values.append(values[-1] + step)
            yield from rec(values, remaining - 1)
            values.pop()

    for length in range(1, max_len + 1):
        yield from rec([0], length)


class CodecSmall(Workload):
    """Exhaustive codec, rotation and real-tree checks at n <= 8."""

    name = "codec_small"
    MAX_N = 8
    prefix = 1

    def setup(self):
        rng = np.random.default_rng(self.seed)
        seqs = []
        for n in range(1, self.MAX_N + 1):
            for m in range(n):  # m = sum of degrees; c = n - m >= 1
                for parts in _partitions(m, n):
                    counts = {0: n - len(parts)}
                    for part in parts:
                        counts[part] = counts.get(part, 0) + 1
                    s = degseq.validate(counts)
                    perms = list(_distinct_permutations([int(d) for d in degseq.degree_vector(s)]))
                    seqs.append((s, perms))
        bridges = [lattice_paths.LatticeBridge(v) for v in _bridge_values(self.MAX_N)]
        trees = [forest_codec.PlaneTree(lex) for lex in _plane_tree_lex(self.MAX_N)]
        self.seqs = [seqs[i] for i in rng.permutation(len(seqs))]
        self.bridges = [bridges[i] for i in rng.permutation(len(bridges))]
        self.trees = [trees[i] for i in rng.permutation(len(trees))]

    def run(self, r, tag):
        """One exhaustive pass; returns (round-trips, problems, output digest)."""
        fc, lp = forest_codec, lattice_paths
        sink = hashlib.sha256()
        problems: list[str] = []
        trips = 0
        for s, perms in self.seqs:
            for perm in perms:
                w = lp.walk_from_degrees(perm)
                m = fc.mcf_from_walk(w)
                trees = m.forest.trees
                sink.update(repr(([t.lex for t in trees], m.mark)).encode())
                bad = fc.walk_from_mcf(m).values != w.values
                last, mark = trees[-1], m.mark[1]
                bad |= fc.marked_tree_from_bridge(fc.bridge_from_marked_tree(last, mark)) != (last, mark)
                for t in trees:
                    bad |= fc.dfw_decode(fc.dfw_encode(t)) != t
                for f, node in fc.mcf_preimages(m):
                    bad |= fc.forest_to_mcf(f, node) != m
                trips += 2 + 2 * len(trees)
                if bad:
                    problems.append(f"round trip failed on walk {w.values}")
            forests = list(fc.enumerate_forests(s, cap=s.n))
            if (len(perms) != fc.count_mcf(s) or len(forests) != fc.count_forests(s)
                    or len(set(forests)) != len(forests)):
                problems.append(f"counts differ from count_mcf/count_forests at {s.counts}")
            sink.update(repr([[t.lex for t in f.trees] for f in forests]).encode())
        for b in self.bridges:
            r_idx = lp.rotation_index(b)
            shifts = [k for k in range(1, b.n + 1) if lp.is_first_passage(lp.cyclic_shift(b, k))]
            if shifts != [r_idx]:
                problems.append(f"bridge {b.values}: first-passage shifts {shifts}, index {r_idx}")
            sink.update(repr(r_idx).encode())
        for t in self.trees:
            graph = realtree.tree_graph_metric(t)
            snap = realtree.metric_snapshot(realtree.contour_function(t), realtree.first_visit_times(t))
            if graph.dist.shape != snap.dist.shape or np.abs(graph.dist - snap.dist).max() != 0.0:
                problems.append(f"contour metric differs from graph metric on {t.lex}")
            sink.update(graph.dist.tobytes())
        if r < self.prefix and tag == "timed":
            self.counters["forest_codec.roundtrips"] = trips
        return trips, problems, sink.digest()

    def digest(self, out):
        return out[2]

    def check(self, out):
        return out[1]


WORKLOADS = {w.name: w for w in (Summary, Forest, LimitSizes, CodecSmall)}
