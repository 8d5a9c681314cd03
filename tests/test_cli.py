"""Command-line interface: subcommands, formats, and exit codes."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from planeforest import forest_codec, sampler
from planeforest.cli import EXIT_CRITERION, EXIT_INVALID, EXIT_OK, main
from planeforest.degseq import geometric_profile, make_degree_sequence
from planeforest.sampler import sample_forest, substream, walk_statistics
from small_cases import traced_peak


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_import_loads_no_scipy():
    # The library runs on numpy alone; only the tests use scipy.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import planeforest.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_degseq_check_ok(capsys):
    code, out = run(capsys, "degseq", "check", "--counts", '{"0": 4, "2": 2}')
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["counts"] == {"0": 4, "2": 2}


def test_degseq_check_invalid(capsys):
    code, _ = run(capsys, "degseq", "check", "--counts", '{"2": 3}')
    assert code == EXIT_INVALID
    code, _ = run(capsys, "degseq", "check", "--counts", "not json")
    assert code == EXIT_INVALID


def test_degseq_make_writes_file(tmp_path, capsys):
    out_file = tmp_path / "s.json"
    code, _ = run(
        capsys, "degseq", "make", "--p", "geometric:0.5", "--n", "500",
        "--c", "8", "--out", str(out_file),
    )
    assert code == EXIT_OK
    obj = json.loads(out_file.read_text())
    counts = {int(k): v for k, v in obj["counts"].items()}
    assert sum(counts.values()) == 500
    assert sum((1 - i) * v for i, v in counts.items()) == 8


def test_sample_forest_json(tmp_path, capsys):
    ds = tmp_path / "s.json"
    ds.write_text('{"counts": {"0": 4, "2": 2}}')
    code, out = run(capsys, "sample", "forest", "--degseq", str(ds), "--seed", "1", "--count", "3")
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    for obj in lines:
        assert sum(len(t) for t in obj["trees"]) == 6


def test_sample_forest_csv_summary(tmp_path, capsys):
    ds = tmp_path / "s.json"
    ds.write_text('{"counts": {"0": 40, "2": 18, "3": 1}}')
    code, out = run(
        capsys, "sample", "forest", "--degseq", str(ds), "--seed", "4",
        "--count", "5", "--format", "csv", "--top", "2",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "replicate,tau_n,size_1,size_2,largest_is_marked"
    assert len(lines) == 6


def test_sample_is_deterministic(tmp_path, capsys):
    ds = tmp_path / "s.json"
    ds.write_text('{"counts": {"0": 4, "2": 2}}')
    _, a = run(capsys, "sample", "mcf", "--degseq", str(ds), "--seed", "9", "--count", "4")
    _, b = run(capsys, "sample", "mcf", "--degseq", str(ds), "--seed", "9", "--count", "4")
    assert a == b


# SHA-256 of `sample <kind> --degseq s.json --seed <seed>` output, where s.json
# holds make_degree_sequence(geometric_profile(), 10_000, 25, seed=1); computed
# with the tuple-by-tuple sampler and json.dumps encoder the array path replaced.
# Kind "csv" is `sample forest ... --count 5 --format csv --top 3`, computed with
# the per-replicate loop that sampler.replicates replaced.
PINNED_SAMPLE_SHA256 = {
    ("csv", 0): "f703cc464f341ae0cb7c5905eb3f46d79ca09c8a9823300dd5aff1e051d5a326",
    ("csv", 1): "b55eef7f68f1f1098be04731011e9c584776eb9de2be8d785659bc8c80e61cda",
    ("forest", 0): "903df56edd3949052ebd03cef1f640036929893c27ee8efce2dc9c56ab61222f",
    ("forest", 1): "405d6087ff9be2af1805aa146a19b70c16a3abb566dfa826b147b4c1d99a4f1c",
    ("forest", 2): "286103d53a09b92e940e56196b64ad25a7bba456a6c52e65117caa7edcbe4430",
    ("mcf", 0): "d5a71cc27603a78f06a66bee994a1ca43dec7d3b264e0b1a2133d87975eea321",
    ("mcf", 1): "440636aab24202aa85148b233516255edf3dae514eecde73880d98b36ffbe193",
    ("mcf", 2): "fcf8d8893b979ea82f796f15e0882720f4d7ac8006c6717da41029386a22afab",
}


@pytest.mark.parametrize("kind, seed", sorted(PINNED_SAMPLE_SHA256))
def test_sample_json_bytes_are_pinned(tmp_path, kind, seed):
    ds, out = tmp_path / "s.json", tmp_path / "out.json"
    ds.write_text(make_degree_sequence(geometric_profile(), 10_000, 25, seed=1).to_json())
    args = ["forest", "--count", "5", "--format", "csv", "--top", "3"] if kind == "csv" else [kind]
    code = main(["sample", *args, "--degseq", str(ds), "--seed", str(seed), "--out", str(out)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SAMPLE_SHA256[kind, seed]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_forest_checks_the_forest_it_returns(monkeypatch, seed):
    # sample_forest builds no marked cyclic forest: it rotates the drawn arrays
    # and checks the rotated ones, once, as the forest it returns.
    def no_mcf(self):
        raise AssertionError("a MarkedCyclicForest was built")

    checks = []
    from_lex = forest_codec.PlaneForest._from_lex
    monkeypatch.setattr(forest_codec.MarkedCyclicForest, "__post_init__", no_mcf)
    monkeypatch.setattr(forest_codec.PlaneForest, "_from_lex",
                        classmethod(lambda cls, *a: checks.append(a) or from_lex(*a)))
    s = make_degree_sequence(geometric_profile(), 10_000, 25, seed=1)
    text = sample_forest(s, substream(seed, 0)).to_json() + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SAMPLE_SHA256["forest", seed]
    assert len(checks) == 1


_REPLICATE_LOOPS = pytest.mark.parametrize("command, n, c", [
    ("verify degrees", 200_000, 21),
    ("sample forest --format csv", 1_000_000, 125),
])


def _loop_and_kernel_peaks(tmp_path, monkeypatch, command, n, c, workers):
    """Traced peaks of three replicates through the CLI on ``workers`` worker
    threads, and of the largest of their kernel calls alone."""
    monkeypatch.setattr(sampler, "_cpus", lambda: workers)
    s = make_degree_sequence(geometric_profile(), n, c, seed=1)
    ds, out = tmp_path / "s.json", tmp_path / "out"
    ds.write_text(s.to_json())
    args = ["--degseq", str(ds), "--count", "3"] if command.startswith("sample") else [
        "--n", str(n), "--cn", str(c), "--reps", "3"]
    argv = [*command.split(), *args, "--seed", "1", "--out", str(out)]
    assert main(argv) in (EXIT_OK, EXIT_CRITERION)  # warm-up: first-call allocations
    peak = traced_peak(lambda: main(argv))
    return peak, max(traced_peak(lambda: walk_statistics(s, substream(1, i))) for i in range(3))


@_REPLICATE_LOOPS
def test_replicate_loops_hold_one_record(tmp_path, monkeypatch, command, n, c):
    # Each replicate's O(n) arrays are freed before the next is drawn, so
    # on one worker three replicates peak no higher than the largest of their
    # kernel calls (a call's peak grows with its replicate's walk prefix).
    peak, one = _loop_and_kernel_peaks(tmp_path, monkeypatch, command, n, c, workers=1)
    assert peak <= 1.1 * one


@_REPLICATE_LOOPS
def test_replicate_loops_hold_one_record_per_worker(tmp_path, monkeypatch, command, n, c):
    # With at most one call per worker in flight, two workers hold at most two.
    peak, one = _loop_and_kernel_peaks(tmp_path, monkeypatch, command, n, c, workers=2)
    assert peak <= 1.1 * 2 * one


def test_sample_writes_each_record_as_it_is_drawn(tmp_path):
    # Twenty forests at n = 2e5 peak at little more than one: the text of
    # each is written before the next is drawn.
    ds = tmp_path / "s.json"
    ds.write_text(make_degree_sequence(geometric_profile(), 200_000, 21, seed=1).to_json())
    argv = lambda count: ["sample", "forest", "--degseq", str(ds), "--seed", "1",
                          "--count", count, "--out", str(tmp_path / count)]
    assert main(argv("1")) == EXIT_OK  # warm-up: first-call allocations
    one, twenty = (traced_peak(lambda: main(argv(count))) for count in ("1", "20"))
    assert (tmp_path / "20").read_text().count("\n") == 20
    assert twenty <= 1.5 * one


@pytest.mark.parametrize("kind", ["forest", "mcf"])
def test_sample_json_builds_no_tree_objects(tmp_path, monkeypatch, kind):
    # The forest path stays on the (lex, sizes) arrays from draw to JSON.
    def no_trees(*args, **kwargs):
        raise AssertionError("a PlaneTree was built")

    monkeypatch.setattr(forest_codec.PlaneTree, "__init__", no_trees)
    monkeypatch.setattr(forest_codec.PlaneTree, "_unchecked", no_trees)
    ds = tmp_path / "s.json"
    ds.write_text(make_degree_sequence(geometric_profile(), 200_000, 21, seed=1).to_json())
    argv = ["sample", kind, "--degseq", str(ds), "--seed", "1", "--count", "2"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_to_json_peak_memory_is_a_few_times_its_output():
    # The encoder works in blocks of nodes; over the whole array at once its
    # keys, gathered words and their bytes add three O(n) temporaries.
    f = sample_forest(make_degree_sequence(geometric_profile(), 1_000_000, 125, seed=1),
                      substream(1, 0))
    size = len(f.to_json())
    assert traced_peak(f.to_json) <= 4.5 * size


def test_codec_encode_decode_round_trip(capsys):
    code, out = run(capsys, "codec", "encode", "--tree", "[2, 3, 0, 0, 0, 1, 0]")
    assert code == EXIT_OK
    bridge = json.loads(out)
    assert bridge[-1] == -1 and all(v >= 0 for v in bridge[:-1])
    code, out = run(capsys, "codec", "decode", "--bridge", json.dumps(bridge))
    assert code == EXIT_OK
    assert json.loads(out)["lex"] == [2, 3, 0, 0, 0, 1, 0]


def test_codec_rotate_default_is_first_argmin(capsys):
    code, out = run(capsys, "codec", "rotate", "--bridge", "[0, -1, -1, -2, -1, 1, 0, -1]")
    assert code == EXIT_OK
    values = json.loads(out)
    # the default shift is the first-argmin one, so the result is an FPB
    assert values[-1] == -1 and all(v >= 0 for v in values[:-1])


def test_codec_split_walk(capsys):
    code, out = run(capsys, "codec", "split", "--walk", "[0, 1, 0, -1, 0, -1, -2]")
    assert code == EXIT_OK
    segments = json.loads(out)
    assert segments == [[0, 1, 0, -1], [0, 1, 0, -1]]


def test_codec_invalid_input(capsys):
    code, _ = run(capsys, "codec", "decode", "--bridge", "[0, 5]")
    assert code == EXIT_INVALID


def test_limit_sample_tau(capsys):
    code, out = run(capsys, "limit", "sample-tau", "--sigma", "1.4142", "--count", "5", "--seed", "2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "tau"
    values = [float(x) for x in lines[1:]]
    assert len(values) == 5
    assert all(v > 0 for v in values)


def test_limit_excursions(capsys):
    code, out = run(
        capsys, "limit", "excursions", "--sigma", "1.4142", "--count", "2",
        "--dt", "0.001", "--top", "3", "--seed", "5",
    )
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2
    for row in rows:
        assert len(row["lengths"]) == 3
        assert row["lengths"] == sorted(row["lengths"], reverse=True)


def test_limit_excursions_skip_censored_draws(capsys):
    # At sigma = 0.2 the draw on substream 5 of seed 6 does not reach -5
    # before t_cap = 1000; it is skipped, not an error.
    code, out = run(
        capsys, "limit", "excursions", "--sigma", "0.2", "--count", "6",
        "--dt", "0.01", "--top", "2", "--seed", "6",
    )
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [row["replicate"] for row in rows] == [0, 1, 2, 3, 4, 6]
    assert all(row["seed"] == 6 and len(row["lengths"]) == 2 for row in rows)


def test_verify_exit_codes(tmp_path, capsys):
    # a tiny run with default tolerances: exit code reflects pass/fail only
    out_file = tmp_path / "report.json"
    code, _ = run(
        capsys, "verify", "walk", "--p", "geometric:0.5", "--n", "4000",
        "--cn", "8", "--reps", "200", "--seed", "11", "--out", str(out_file),
    )
    assert code in (EXIT_OK, EXIT_CRITERION)
    report = json.loads(out_file.read_text())
    assert report["name"] == "walk"
    assert report["params"]["n"] == 4000


def test_verify_walk_without_spread_fails_with_finite_json(capsys):
    # At c_n = 1 both replicates have the same walk values at t = 1 and 2,
    # so the variance ratio and the increment correlation are undefined.
    code, out = run(capsys, "verify", "walk", "--n", "100", "--cn", "1", "--seed", "1",
                    "--reps", "2")
    assert code == EXIT_CRITERION

    def reject(const):
        raise ValueError(f"non-finite number {const} in the report")

    report = json.loads(out, parse_constant=reject)
    assert report["stats"]["variance"]["1.0"] == 0.0
    assert report["stats"]["variance_ratio_2_over_1"] is None
    assert report["passed"]["variance_ratio"] is False


def test_verify_cn_exponent(capsys):
    code, out = run(
        capsys, "verify", "tau", "--p", "geometric:0.5", "--n", "4000",
        "--cn-exp", "0.35", "--reps", "50", "--seed", "12",
    )
    assert code in (EXIT_OK, EXIT_CRITERION)
    report = json.loads(out)
    assert report["params"]["cn"] == int(4000**0.35)


@pytest.mark.parametrize("argv", [
    ("degseq", "make", "--n", "500", "--c", "8"),
    ("degseq", "check"),
    ("verify", "largest", "--n", "4000", "--reps", "0", "--seed", "1"),
    ("codec", "decode"),
])
def test_missing_or_empty_arguments_are_invalid(capsys, argv):
    code = main(list(argv))
    assert code == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    # c = 1, and the CLI asks for tree ranks 1 and 2
    ("verify", "degrees", "--n", "2000", "--cn", "1", "--reps", "5", "--seed", "1"),
    ("degseq", "check", "--counts", "[1]"),
    ("sample", "forest", "--degseq", "file:{}", "--seed", "1"),
    ("sample", "forest", "--degseq", "file:[]", "--seed", "1"),
    ("codec", "encode", "--tree", "[1.5,-0.5]"),
    ("codec", "encode", "--tree", "[3,2,-1,0,0]"),
    ("codec", "encode", "--tree", "[[1]]"),
    ("codec", "decode", "--bridge", "[0,1.5,0,-1]"),
    ("codec", "decode", "--bridge", "[[1]]"),
    ("codec", "decode", "--bridge", "5"),
    ("codec", "split", "--walk", "[[0]]"),
    ("degseq", "check", "--counts", '{"0": 1.5, "1": 2}'),
    ("sample", "forest", "--degseq", 'file:{"counts": {"0": 1.5, "1": 2}}', "--seed", "1"),
    ("sample", "forest", "--degseq", 'file:{"counts": {"0": 4, "2": 2}}', "--seed", "1",
     "--format", "csv", "--top", "-1"),
    ("sample", "forest", "--degseq", 'file:{"counts": {"0": 4, "2": 2}}', "--seed", "1",
     "--count", "-2"),
    ("limit", "excursions", "--sigma", "1", "--seed", "1", "--top", "0"),
    ("limit", "excursions", "--sigma", "1", "--seed", "1", "--count", "-2"),
    ("verify", "tau", "--n", "-5", "--seed", "1", "--reps", "2"),
    ("verify", "tau", "--p", '{"0": null}', "--n", "100", "--seed", "1", "--reps", "2"),
    ("verify", "sizes", "--n", "100", "--cn", "4", "--seed", "1", "--reps", "2", "--top", "-1"),
    ("verify", "concentration", "--n", "100000", "--cn", "500", "--reps", "3", "--seed", "1"),
    ("verify", "tau", "--p", '{"0": NaN, "2": 1}', "--n", "100", "--seed", "1", "--reps", "2"),
    ("limit", "sample-tau", "--sigma", "nan", "--count", "3", "--seed", "1"),
    ("limit", "sample-tau", "--sigma", "inf", "--count", "3", "--seed", "1"),
    ("limit", "excursions", "--sigma", "nan", "--seed", "1"),
    ("limit", "excursions", "--sigma", "1", "--dt", "nan", "--seed", "1"),
    ("limit", "excursions", "--sigma", "1", "--dt", "2000", "--seed", "1"),
    ("limit", "excursions", "--sigma", "1", "--dt", "1e-12", "--count", "1", "--seed", "1"),
    ("verify", "tau", "--n", "1000", "--cn-exp", "inf", "--reps", "2", "--seed", "1"),
    ("verify", "tau", "--n", "1000", "--cn-exp", "1e308", "--reps", "2", "--seed", "1"),
    ("verify", "tau", "--n", "1000", "--cn-exp", "nan", "--reps", "2", "--seed", "1"),
    ("verify", "tau", "--n", "1000", "--cn", "0", "--reps", "2", "--seed", "1"),
    # 1e17 draws need 711 PiB, more than any 64-bit address space.
    ("limit", "sample-tau", "--sigma", "1", "--count", "100000000000000000", "--seed", "1"),
    ("verify", "sizes", "--n", "2000", "--cn", "6", "--reps", "5",
     "--top", "100000000000000000", "--seed", "1"),
    # JSON true/false are not integers, and a string is not a weight.
    ("degseq", "check", "--counts", '{"0": true, "2": false}'),
    ("sample", "forest", "--degseq", 'file:{"counts": {"0": 3, "2": true}}', "--seed", "1"),
    ("codec", "encode", "--tree", "[true, false]"),
    ("codec", "decode", "--bridge", "[0, false, -1]"),
    ("codec", "split", "--walk", "[0, true, false, -1]"),
    ("degseq", "make", "--p", '{"0": true, "2": true}', "--n", "100", "--c", "4"),
    ("verify", "tau", "--p", '{"0": "1", "2": "1"}', "--n", "1000", "--reps", "2", "--seed", "1"),
    # An integer weight too large for a float.
    ("degseq", "make", "--p", '{"0": 1' + "0" * 400 + ', "2": 1}', "--n", "100", "--c", "4"),
    # A degree is an integer or its canonical decimal string, named once.
    ("degseq", "check", "--counts", '{"0": 3, "1": 5, "01": 2}'),
    ("degseq", "check", "--counts", '{"0": 12, "1_0": 1}'),
    ("degseq", "check", "--counts", '{" 0": 3, "1": 1}'),
    ("degseq", "check", "--counts", '{"0": 3, "0": 5, "1": 1}'),
    ("degseq", "make", "--p", '{"0": 0.5, "0": 0.5, "2": 0.5}', "--n", "100", "--c", "4"),
    ("degseq", "make", "--p", '{"00": 0.5, "2": 0.5}', "--n", "100", "--c", "4"),
    ("sample", "forest", "--degseq", 'file:{"counts": {"0": 4, "0": 5, "2": 2}}', "--seed", "1"),
    # A negative profile weight is named, not dropped.
    ("degseq", "make", "--p", '{"0": 0.5, "1": 0.1, "2": 0.5, "3": -0.1}', "--n", "1000", "--c", "5"),
    # A negative seed is named before the degree sequence is read or --out is opened.
    ("sample", "forest", "--degseq", 'file:{"counts": {"0": 4, "2": 2}}', "--seed", "-1",
     "--out", "out:o.json"),
    ("limit", "sample-tau", "--sigma", "1", "--count", "3", "--seed", "-1"),
    ("verify", "tau", "--n", "1000", "--reps", "2", "--seed", "-1"),
    # n = cn = 1 is in the regime, but leaves no window size m in (cn, n].
    ("verify", "concentration", "--n", "1", "--cn", "1", "--reps", "1", "--seed", "0"),
    # Weights whose sum, or n times one of them, is past the largest float.
    ("degseq", "make", "--p", '{"0": 1e308, "2": 1e308}', "--n", "10", "--c", "2"),
    ("degseq", "make", "--p", '{"0": 1e308, "2": 1}', "--n", "10", "--c", "2"),
    ("degseq", "make", "--p", "foo:1", "--n", "10", "--c", "2"),
    # Profiles whose sequences have no degree above 1: sigma = 0.
    ("verify", "walk", "--p", '{"0": 0.001, "1": 0.999}', "--n", "10000", "--cn", "6",
     "--reps", "20", "--seed", "1"),
    ("verify", "walk", "--n", "3", "--cn", "1", "--reps", "2", "--seed", "1"),
], ids=["degrees_rank_above_c", "counts_not_a_mapping", "degseq_file_without_counts",
        "degseq_file_is_a_list", "tree_float_entries", "tree_negative_entry",
        "tree_nested_list", "bridge_float_entries", "bridge_nested_list",
        "bridge_not_a_sequence", "walk_nested_list", "counts_fractional",
        "degseq_file_fractional_counts", "sample_top_negative", "sample_count_negative",
        "limit_top_zero", "limit_count_negative", "verify_n_negative",
        "verify_profile_weight_null", "verify_top_negative", "concentration_cn_above_n_to_the_04",
        "verify_profile_weight_nan", "sample_tau_sigma_nan", "sample_tau_sigma_inf",
        "excursions_sigma_nan", "excursions_dt_nan", "excursions_dt_above_t_cap",
        "excursions_dt_tiny", "verify_cn_exp_inf", "verify_cn_exp_overflow", "verify_cn_exp_nan",
        "verify_cn_zero", "sample_tau_count_huge", "verify_top_huge", "counts_boolean",
        "degseq_file_boolean_count", "tree_boolean_entries", "bridge_boolean_entries",
        "walk_boolean_entries", "profile_weight_boolean", "profile_weight_string",
        'degseq make --p \'{"0": 1<400 zeros>, "2": 1}\'',
        "counts_leading_zero_key", "counts_underscore_key", "counts_space_key",
        "counts_repeated_json_key", "profile_repeated_json_key", "profile_leading_zero_key",
        "degseq_file_repeated_key", "profile_weight_negative", "sample_seed_negative",
        "limit_seed_negative", "verify_seed_negative", "concentration_n_not_above_cn",
        "profile_sum_overflows", "profile_share_overflows", "profile_unknown",
        "walk_sigma_zero", "walk_sigma_zero_geometric"])
def test_malformed_inputs_are_invalid(tmp_path, capsys, argv):
    # "file:<text>" stands for the path of a file that holds <text>, and
    # "out:<name>" for the path tmp_path/<name>, which no invalid input may create.
    outs = []
    for i, arg in enumerate(argv):
        if arg.startswith("file:"):
            path = tmp_path / f"arg{i}.json"
            path.write_text(arg[len("file:"):])
            argv = argv[:i] + (str(path),) + argv[i + 1:]
        elif arg.startswith("out:"):
            outs.append(tmp_path / arg[len("out:"):])
            argv = argv[:i] + (str(outs[-1]),) + argv[i + 1:]
    code = main(list(argv))
    assert code == EXIT_INVALID
    assert not any(path.exists() for path in outs)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--top" in argv and int(argv[argv.index("--top") + 1]) < 1:
        assert "--top" in err
    if "--dt" in argv:
        assert "dt > 0" in err
    if "--cn-exp" in argv:
        assert "--cn-exp" in err
    if "--cn" in argv and int(argv[argv.index("--cn") + 1]) < 1:
        assert "cn=" in err
    if any("0" * 400 in arg for arg in argv):
        assert "weight of degree 0" in err
    if any('"3": -0.1' in arg for arg in argv):
        assert "weight of degree 3" in err
    if "--seed" in argv and int(argv[argv.index("--seed") + 1]) < 0:
        assert "--seed" in err
    if argv[:2] == ("verify", "concentration") and "1" == argv[argv.index("--n") + 1]:
        assert "n > cn, got n=1, cn=1" in err
    if any(arg.startswith('{"0": 1e308') for arg in argv):
        assert "profile weights overflow" in err
    if "foo:1" in argv:
        assert "unknown profile 'foo:1'" in err
    if argv[:2] == ("verify", "walk"):
        assert err.startswith("error: DomainError: need 0 < sigma < inf")


@pytest.mark.parametrize("ratio", ["2", "-0.5", "0", "1", "nan", "inf"])
def test_geometric_ratio_outside_unit_interval_is_named(capsys, ratio):
    code = main(["degseq", "make", "--p", f"geometric:{ratio}", "--n", "1000", "--c", "5"])
    err = capsys.readouterr().err
    assert code == EXIT_INVALID
    assert err == f"error: ValueError: geometric ratio must lie in (0, 1), got {float(ratio)}\n"


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # Every `planeforest ...` command of the README's "Command line" section,
    # in order: the later ones read the files the earlier ones write.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = []
    for line in section.splitlines():
        if line.startswith("planeforest "):
            commands.append(line)
        commands += re.findall(r"`(planeforest [^`]*)`", line)
    assert commands
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == EXIT_OK, command


def test_usage_error_exits_invalid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "forest", "--degseq", "s.json"])  # no --seed
    assert exc.value.code == EXIT_INVALID


def test_unknown_subcommand_fails(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
