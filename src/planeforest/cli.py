"""Command-line interface.

Exit codes: 0 success, 1 invalid input (usage errors included), 2
statistical criterion failed (so CI jobs can gate on acceptance runs).
Every report echoes the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from . import degseq, forest_codec, lattice_paths, limit_sim, sampler, verify
from .errors import PlaneForestError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CRITERION = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INVALID instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _parse_profile(text: str) -> dict[int, float]:
    """'geometric:0.5' or an inline JSON object of degree -> weight."""
    if text.startswith("{"):
        return degseq.profile_weights(degseq.loads(text))
    kind, _, arg = text.partition(":")
    if kind == "geometric":
        return degseq.geometric_profile(float(arg) if arg else 0.5)
    raise ValueError(f"unknown profile {text!r}")


def _at_least(args, **lows):
    """Reject each option --name below its least value lows[name]."""
    for name, low in lows.items():
        if getattr(args, name) < low:
            raise ValueError(f"--{name} must be at least {low}, got {getattr(args, name)}")


def _write(out: str | None, lines):
    """Write each of ``lines`` as it comes, to the file ``out`` or to stdout."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        for line in lines:
            print(line, file=fh)


def _cmd_degseq(args) -> int:
    needed = ["counts"] if args.action == "check" else ["p", "n", "c"]
    missing = [f"--{k}" for k in needed if getattr(args, k) is None]
    if missing:
        raise ValueError(f"degseq {args.action} needs {', '.join(missing)}")
    if args.action == "check":
        s = degseq.validate(degseq.loads(args.counts))
    else:  # make
        s = degseq.make_degree_sequence(_parse_profile(args.p), args.n, args.c)
    _write(args.out, [s.to_json()])
    return EXIT_OK


def _cmd_sample(args) -> int:
    _at_least(args, count=1, top=1, seed=0)
    with open(args.degseq) as fh:
        s = degseq.DegreeSequence.from_json(fh.read())
    if args.format == "csv":
        rows = map(sampler.forest_summary_csv_row, itertools.count(),
                   sampler.replicates(s, args.seed, args.count), itertools.repeat(args.top))
        lines = itertools.chain([sampler.forest_summary_csv_header(args.top)], rows)
    else:
        # sample_forest draws its rotation from the rng after the kernel.
        draw = sampler.sample_mcf if args.kind == "mcf" else sampler.sample_forest
        lines = (draw(s, sampler.substream(args.seed, rep)).to_json() for rep in range(args.count))
    _write(args.out, lines)
    return EXIT_OK


def _cmd_codec(args) -> int:
    needed = {"encode": "tree", "split": "walk"}.get(args.action, "bridge")
    if getattr(args, needed) is None:
        raise ValueError(f"codec {args.action} needs --{needed}")
    values = json.loads(getattr(args, needed))
    if isinstance(values, list) and any(isinstance(v, bool) for v in values):
        raise ValueError(f"--{needed} entries must be integers, not true/false")
    if args.action == "encode":
        tree = forest_codec.PlaneTree(values)
        _write(args.out, [forest_codec.dfw_encode(tree).to_json()])
    elif args.action == "decode":
        tree = forest_codec.dfw_decode(lattice_paths.FirstPassageBridge(values))
        _write(args.out, [json.dumps({"lex": list(tree.lex)})])
    elif args.action == "rotate":
        bridge = lattice_paths.LatticeBridge(values)
        k = args.k if args.k is not None else lattice_paths.rotation_index(bridge)
        _write(args.out, [lattice_paths.cyclic_shift(bridge, k).to_json()])
    else:  # split
        walk = lattice_paths.CodingWalk(values)
        segs = lattice_paths.split_at_passage_times(walk)
        _write(args.out, [json.dumps([list(seg.values) for seg in segs])])
    return EXIT_OK


def _cmd_limit(args) -> int:
    _at_least(args, count=1, top=1, seed=0)
    if args.action == "sample-tau":
        rng = sampler.rng_from_seed(args.seed)
        samples = limit_sim.sample_tau_exact(args.sigma, rng, size=args.count)
        _write(args.out, itertools.chain(["tau"], (f"{float(x):.12g}" for x in samples)))
    else:  # excursions
        draws = limit_sim.uncensored_limit_draws(
            args.sigma, args.top, args.dt, args.count, args.seed
        )
        _write(args.out, (json.dumps({"replicate": int(i), "seed": args.seed, "tau": tau,
                                      "lengths": list(lengths)}) for i, tau, lengths in zip(*draws)))
    return EXIT_OK


# The verify experiments that take (p, n, cn, reps, seed), by command name.
# They are looked up on the module at call time, so a wrapped function is
# the one called.
_EXPERIMENTS = {
    "tau": "experiment_tau",
    "walk": "experiment_walk",
    "degrees": "experiment_degrees",
    "largest": "experiment_largest_marked",
    "concentration": "experiment_concentration",
}


def _cmd_verify(args) -> int:
    _at_least(args, reps=1, n=1, top=1, seed=0)
    if not 0 <= args.cn_exp < 1:
        raise ValueError(f"--cn-exp must lie in [0, 1), got {args.cn_exp}")
    p = _parse_profile(args.p)
    cn = args.cn if args.cn is not None else int(args.n**args.cn_exp)
    if args.experiment == "sizes":
        report = verify.experiment_tree_sizes(p, args.n, cn, args.reps, args.top, args.seed)
    else:
        run = getattr(verify, _EXPERIMENTS[args.experiment])
        report = run(p, args.n, cn, args.reps, args.seed)
    _write(args.out, [report.to_json()])
    return EXIT_OK if report.ok else EXIT_CRITERION


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="planeforest")
    sub = ap.add_subparsers(dest="command", required=True)

    p_deg = sub.add_parser("degseq", help="validate or build degree sequences")
    p_deg.add_argument("action", choices=["check", "make"])
    p_deg.add_argument("--counts", help="JSON degree->count map (check)")
    p_deg.add_argument("--p", help="profile, e.g. geometric:0.5 (make)")
    p_deg.add_argument("--n", type=int)
    p_deg.add_argument("--c", type=int)
    p_deg.add_argument("--out")
    p_deg.set_defaults(func=_cmd_degseq)

    p_sam = sub.add_parser("sample", help="sample forests or marked cyclic forests")
    p_sam.add_argument("kind", choices=["forest", "mcf"])
    p_sam.add_argument("--degseq", required=True, help="JSON file with counts")
    p_sam.add_argument("--seed", type=int, required=True)
    p_sam.add_argument("--count", type=int, default=1)
    p_sam.add_argument("--format", choices=["json", "csv"], default="json")
    p_sam.add_argument("--top", type=int, default=3, help="sizes reported in CSV")
    p_sam.add_argument("--out")
    p_sam.set_defaults(func=_cmd_sample)

    p_cod = sub.add_parser("codec", help="lattice-path codecs")
    p_cod.add_argument("action", choices=["encode", "decode", "rotate", "split"])
    p_cod.add_argument("--tree", help="JSON lex degree array (encode)")
    p_cod.add_argument("--bridge", help="JSON path values (decode/rotate)")
    p_cod.add_argument("--walk", help="JSON path values (split)")
    p_cod.add_argument("--k", type=int, help="shift amount (rotate); default first-argmin")
    p_cod.add_argument("--out")
    p_cod.set_defaults(func=_cmd_codec)

    p_lim = sub.add_parser("limit", help="Brownian limit simulation")
    p_lim.add_argument("action", choices=["sample-tau", "excursions"])
    p_lim.add_argument("--sigma", type=float, required=True)
    p_lim.add_argument("--count", type=int, default=1)
    p_lim.add_argument("--dt", type=float, default=1e-4)
    p_lim.add_argument("--top", type=int, default=3)
    p_lim.add_argument("--seed", type=int, required=True)
    p_lim.add_argument("--out")
    p_lim.set_defaults(func=_cmd_limit)

    p_ver = sub.add_parser("verify", help="Monte Carlo limit-theorem checks")
    p_ver.add_argument("experiment", choices=[*_EXPERIMENTS, "sizes"])
    p_ver.add_argument("--p", default="geometric:0.5")
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--cn", type=int)
    p_ver.add_argument("--cn-exp", type=float, default=0.25, dest="cn_exp")
    p_ver.add_argument("--reps", type=int, default=300)
    p_ver.add_argument("--top", type=int, default=3)
    p_ver.add_argument("--seed", type=int, required=True)
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=_cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (PlaneForestError, ValueError, OverflowError, MemoryError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
