"""Command-line interface.

Exit codes: 0 success, 1 invalid input (usage errors included), 2
statistical criterion failed (so CI jobs can gate on acceptance runs).
Every report echoes the seed.
"""

from __future__ import annotations

import argparse
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
        try:
            return {int(i): float(w) for i, w in json.loads(text).items()}
        except TypeError as exc:
            raise ValueError(f"profile weights must be numbers: {exc}") from None
    kind, _, arg = text.partition(":")
    if kind == "geometric":
        return degseq.geometric_profile(float(arg) if arg else 0.5)
    raise ValueError(f"unknown profile {text!r}")


def _at_least_one(args, *names):
    for name in names:
        if getattr(args, name) < 1:
            raise ValueError(f"--{name} must be at least 1, got {getattr(args, name)}")


def _write(out: str | None, text: str):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_degseq(args) -> int:
    needed = ["counts"] if args.action == "check" else ["p", "n", "c"]
    missing = [f"--{k}" for k in needed if getattr(args, k) is None]
    if missing:
        raise ValueError(f"degseq {args.action} needs {', '.join(missing)}")
    if args.action == "check":
        s = degseq.validate(json.loads(args.counts))
    else:  # make
        s = degseq.make_degree_sequence(_parse_profile(args.p), args.n, args.c, args.seed)
    _write(args.out, s.to_json())
    return EXIT_OK


def _cmd_sample(args) -> int:
    _at_least_one(args, "count", "top")
    with open(args.degseq) as fh:
        s = degseq.DegreeSequence.from_json(fh.read())
    lines = []
    if args.format == "csv":
        lines.append(sampler.forest_summary_csv_header(args.top))
    for rep in range(args.count):
        rng = sampler.substream(args.seed, rep)
        if args.format == "csv":
            ws = sampler.walk_statistics(s, rng)
            lines.append(sampler.forest_summary_csv_row(rep, ws, args.top))
        elif args.kind == "mcf":
            lines.append(sampler.sample_mcf(s, rng).to_json())
        else:
            lines.append(sampler.sample_forest(s, rng).to_json())
    _write(args.out, "\n".join(lines))
    return EXIT_OK


def _cmd_codec(args) -> int:
    needed = {"encode": "tree", "split": "walk"}.get(args.action, "bridge")
    if getattr(args, needed) is None:
        raise ValueError(f"codec {args.action} needs --{needed}")
    if args.action == "encode":
        tree = forest_codec.PlaneTree(json.loads(args.tree))
        _write(args.out, forest_codec.dfw_encode(tree).to_json())
    elif args.action == "decode":
        bridge = lattice_paths.FirstPassageBridge(json.loads(args.bridge))
        tree = forest_codec.dfw_decode(bridge)
        _write(args.out, json.dumps({"lex": list(tree.lex)}))
    elif args.action == "rotate":
        bridge = lattice_paths.LatticeBridge(json.loads(args.bridge))
        k = args.k if args.k is not None else lattice_paths.rotation_index(bridge)
        _write(args.out, lattice_paths.cyclic_shift(bridge, k).to_json())
    else:  # split
        walk = lattice_paths.CodingWalk(json.loads(args.walk))
        segs = lattice_paths.split_at_passage_times(walk)
        _write(args.out, json.dumps([list(seg.values) for seg in segs]))
    return EXIT_OK


def _cmd_limit(args) -> int:
    _at_least_one(args, "count", "top")
    if args.action == "sample-tau":
        rng = sampler.rng_from_seed(args.seed)
        samples = limit_sim.sample_tau_exact(args.sigma, rng, size=args.count)
        _write(args.out, "tau\n" + "\n".join(f"{float(x):.12g}" for x in samples))
    else:  # excursions
        draws = limit_sim.uncensored_limit_draws(
            args.sigma, args.top, args.dt, args.count, args.seed
        )
        records = [{"replicate": int(i), "seed": args.seed, "tau": tau, "lengths": list(lengths)}
                   for i, tau, lengths in zip(*draws)]
        _write(args.out, "\n".join(json.dumps(rec) for rec in records))
    return EXIT_OK


def _cmd_verify(args) -> int:
    _at_least_one(args, "reps", "n")
    p = _parse_profile(args.p)
    cn = args.cn if args.cn is not None else int(args.n**args.cn_exp)
    if args.experiment == "tau":
        report = verify.experiment_tau(p, args.n, cn, args.reps, args.seed)
    elif args.experiment == "sizes":
        report = verify.experiment_tree_sizes(p, args.n, cn, args.reps, args.top, args.seed)
    elif args.experiment == "walk":
        report = verify.experiment_walk(p, args.n, cn, args.reps, [0.5, 1.0, 2.0], args.seed)
    elif args.experiment == "degrees":
        report = verify.experiment_degrees(
            p, args.n, cn, args.reps, degrees=[0, 1, 2], trees=[1, 2], seed=args.seed
        )
    elif args.experiment == "largest":
        report = verify.experiment_largest_marked(p, args.n, cn, args.reps, args.seed)
    else:  # concentration
        s = degseq.make_degree_sequence(p, args.n, cn, args.seed)
        report = verify.experiment_concentration(s, degree=0, thresholds=[0.3, 0.5],
                                                 reps=args.reps, seed=args.seed)
    _write(args.out, report.to_json())
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
    p_deg.add_argument("--seed", type=int, default=0)
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
    p_ver.add_argument("experiment",
                       choices=["tau", "sizes", "walk", "degrees", "largest", "concentration"])
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
    except (PlaneForestError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
