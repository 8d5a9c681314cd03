"""Command-line interface: subcommands, formats, and exit codes."""

import hashlib
import json

import pytest

from planeforest.cli import EXIT_CRITERION, EXIT_INVALID, EXIT_OK, main
from planeforest.degseq import geometric_profile, make_degree_sequence


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        "--c", "8", "--seed", "3", "--out", str(out_file),
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
PINNED_SAMPLE_SHA256 = {
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
    code = main(["sample", kind, "--degseq", str(ds), "--seed", str(seed), "--out", str(out)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SAMPLE_SHA256[kind, seed]


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
], ids=["degrees_rank_above_c", "counts_not_a_mapping", "degseq_file_without_counts",
        "degseq_file_is_a_list", "tree_float_entries", "tree_negative_entry",
        "tree_nested_list", "bridge_float_entries", "bridge_nested_list",
        "bridge_not_a_sequence", "walk_nested_list", "counts_fractional",
        "degseq_file_fractional_counts", "sample_top_negative", "sample_count_negative",
        "limit_top_zero", "limit_count_negative", "verify_n_negative",
        "verify_profile_weight_null"])
def test_malformed_inputs_are_invalid(tmp_path, capsys, argv):
    # "file:<text>" stands for the path of a file that holds <text>.
    for i, arg in enumerate(argv):
        if arg.startswith("file:"):
            path = tmp_path / f"arg{i}.json"
            path.write_text(arg[len("file:"):])
            argv = argv[:i] + (str(path),) + argv[i + 1:]
    code = main(list(argv))
    assert code == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exits_invalid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "forest", "--degseq", "s.json"])  # no --seed
    assert exc.value.code == EXIT_INVALID


def test_unknown_subcommand_fails(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
