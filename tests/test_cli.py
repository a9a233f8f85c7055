"""End-to-end drives of the command line, run in process through main()."""

import hashlib
import json
import shutil

import pytest
from hypothesis import example, given, settings, strategies as st

import lrpairs.cli as cli
import lrpairs.ring as ring_mod
from lrpairs.cli import main
from lrpairs.errors import RankError, VerificationError
from lrpairs.matrix import RMatrix
from lrpairs.ring import RingElem
from lrpairs.tableaux import MAX_SIZE, Filling

from golden import FILLING, golden_n

GOLDEN_FILLING_DOC = {"filling": [[4], [2, 4], [1, 1, 3], [1, 0, 1, 2]],
                     "mu": [7, 4, 2, 1]}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


# ---------------------------------------------------------------------------
# realize


def test_realize_golden(tmp_path, capsys):
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    rc, out = run(capsys, "realize", "--in", infile)
    assert rc == 0
    doc = json.loads(out)
    assert RMatrix.from_json(doc["N"]) == golden_n()
    assert doc["mu"] == [7, 4, 2, 1]
    assert doc["lambda"] == [11, 10, 7, 5]
    assert doc["verified"] is True
    assert doc["seed"] == 0


def test_realize_writes_out_file(tmp_path, capsys):
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    outfile = tmp_path / "real.json"
    rc, out = run(capsys, "realize", "--in", infile, "--out", str(outfile))
    assert rc == 0 and out == ""
    doc = json.loads(outfile.read_text(encoding="utf-8"))
    assert RMatrix.from_json(doc["N"]) == golden_n()


def test_realize_is_byte_deterministic(tmp_path, capsys):
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    rc1, out1 = run(capsys, "realize", "--in", infile, "--seed", "9")
    rc2, out2 = run(capsys, "realize", "--in", infile, "--seed", "9")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_realize_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["realize", "--in", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b'{"mu": "\xff"}',                   # not UTF-8
    b"[" * 2000 + b"]" * 2000,           # deeper than the parser recurses
    b'{"mu": [' + b"1" * 4301 + b"]}",   # past CPython's int digit limit
], ids=["not_utf8", "nested_2000", "int_4301_digits"])
def test_unreadable_json_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for command in ("extract", "realize"):
        assert main([command, "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "lrpairs: input error" in err
        assert "Traceback" not in err


def test_realize_missing_keys_exits_2(tmp_path, capsys):
    infile = write_json(tmp_path / "in.json", {"filling": [[1]]})
    assert main(["realize", "--in", infile]) == 2


def test_realize_missing_file_exits_2(tmp_path, capsys):
    assert main(["realize", "--in", str(tmp_path / "nope.json")]) == 2


def test_realize_invalid_filling_exits_2(tmp_path, capsys):
    infile = write_json(tmp_path / "in.json",
                        {"filling": [[4], [1, 5]], "mu": [7, 4]})
    assert main(["realize", "--in", infile]) == 2


# ---------------------------------------------------------------------------
# extract


def test_extract_recovers_golden_filling(tmp_path, capsys):
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    real_file = tmp_path / "real.json"
    assert main(["realize", "--in", infile, "--out", str(real_file)]) == 0
    rc, out = run(capsys, "extract", "--in", str(real_file), "--seed", "7")
    assert rc == 0
    doc = json.loads(out)
    assert Filling(tuple(tuple(r) for r in doc["filling"]["rows"])) == FILLING
    assert doc["mu"] == [7, 4, 2, 1]
    assert doc["nu"] == [8, 5, 4, 2]
    assert doc["lambda"] == [11, 10, 7, 5]
    assert doc["minor_orders"]["1,2,3,4|1,2,3,4"] == 19
    assert doc["certificate"]["verification"]["ok"] is True


def test_extract_same_seed_same_bytes(tmp_path, capsys):
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    real_file = tmp_path / "real.json"
    main(["realize", "--in", infile, "--out", str(real_file)])
    capsys.readouterr()
    rc1, out1 = run(capsys, "extract", "--in", str(real_file), "--seed", "3")
    rc2, out2 = run(capsys, "extract", "--in", str(real_file), "--seed", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_extract_accepts_explicit_pair_keys(tmp_path, capsys):
    doc = {"first": {"r": 1, "entries": [[{"num": [["1", 2]]}]]},
           "second": {"r": 1, "entries": [[{"num": [["1", 3]]}]]}}
    infile = write_json(tmp_path / "pair.json", doc)
    rc, out = run(capsys, "extract", "--in", infile)
    assert rc == 0
    assert json.loads(out)["filling"]["rows"] == [[3]]


def test_extract_rejects_rank_deficient_pair(tmp_path, capsys):
    doc = {"first": {"r": 1, "entries": [[{"num": [["1", 2]]}]]},
           "second": {"r": 1, "entries": [[{"num": []}]]}}
    infile = write_json(tmp_path / "pair.json", doc)
    assert main(["extract", "--in", infile]) == 2


def test_extract_rejects_huge_degree_before_arithmetic(tmp_path, capsys, monkeypatch):
    def no_arithmetic(*args):
        raise AssertionError("arithmetic ran on an unbounded input")

    monkeypatch.setattr(ring_mod, "_make", no_arithmetic)
    huge = {"num": [["1", 10 ** 9]], "den": [["1", 0], ["1", 1]]}
    doc = {"first": {"r": 1, "entries": [[huge]]},
           "second": {"r": 1, "entries": [[{"num": [["1", 0]]}]]}}
    infile = write_json(tmp_path / "pair.json", doc)
    assert main(["extract", "--in", infile]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


def _never(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran on an oversized input")
    return fail


def test_extract_rejects_oversized_pair_before_parsing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(RingElem, "from_json", staticmethod(_never("parsing")))
    size = MAX_SIZE + 1
    grid = [[{"num": [["1", 0]]}] * size for _ in range(size)]
    doc = {"first": {"r": size, "entries": grid}, "second": {"r": size, "entries": grid}}
    infile = write_json(tmp_path / "pair.json", doc)
    assert main(["extract", "--in", infile]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


def test_realize_rejects_oversized_filling(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "realize", _never("realize"))
    rows = [[0] * j for j in range(1, MAX_SIZE + 2)]
    for filling in (rows, {"rows": rows}):
        infile = write_json(tmp_path / "in.json", {"filling": filling, "mu": [1]})
        assert main(["realize", "--in", infile]) == 2
        assert "exceeds the limit" in capsys.readouterr().err


def test_realize_writes_no_degree_extract_refuses(tmp_path, capsys):
    """realize refuses, writing nothing, a document whose degrees extract
    would refuse: M's t^mu_1, or N's t^12000 = t^(k_12 + k_22) from entries
    of 6000.  At mu_1 = MAX_DEGREE the document loads as a pair."""
    out = tmp_path / "out.json"
    for doc, degree in (({"filling": [[3], [1, 2]], "mu": [100_000_000, 5]}, 100_000_000),
                        ({"filling": [[6000], [6000, 6000]], "mu": [6000]}, 12000)):
        assert main(["realize", "--in", write_json(tmp_path / "big.json", doc),
                     "--out", str(out)]) == 2
        assert f"degree {degree}, above the limit" in capsys.readouterr().err
        assert not out.exists()
    edge = write_json(tmp_path / "edge.json",
                      {"filling": [[3], [1, 2]], "mu": [ring_mod.MAX_DEGREE, 5]})
    assert main(["realize", "--in", edge, "--out", str(out)]) == 0
    pair = cli._load_pair(json.loads(out.read_text(encoding="utf-8")))
    assert pair.first.entry(1, 1) == RingElem.t_pow(ring_mod.MAX_DEGREE)


def test_roundtrip_rejects_oversized_rmax(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "random_filling", _never("sampling"))
    assert main(["roundtrip", "--rmax", str(MAX_SIZE + 1), "--trials", "1"]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("rmax,pmax", [(4, cli.MAX_BOX // 4 + 1), (1, cli.MAX_BOX + 1),
                                       (MAX_SIZE, 7)])
def test_roundtrip_rejects_oversized_pmax(tmp_path, capsys, monkeypatch, rmax, pmax):
    monkeypatch.setattr(cli, "random_filling", _never("sampling"))
    assert main(["roundtrip", "--rmax", str(rmax), "--pmax", str(pmax),
                 "--trials", "1"]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("rmax,pmax", [(MAX_SIZE, 6), (4, 15), (1, cli.MAX_BOX)])
def test_roundtrip_accepts_boxes_at_the_limit(tmp_path, monkeypatch, rmax, pmax):
    monkeypatch.setattr(cli, "random_filling", _never("sampling"))
    assert main(["roundtrip", "--rmax", str(rmax), "--pmax", str(pmax), "--trials", "0",
                 "--out", str(tmp_path / "sum.json")]) == 0


@pytest.mark.parametrize("bound", ["--rmax", "--pmax"])
def test_roundtrip_rejects_zero_bound_before_sampling(tmp_path, capsys,
                                                     monkeypatch, bound):
    monkeypatch.setattr(cli, "random_filling", _never("sampling"))
    rc = main(["roundtrip", bound, "0", "--trials", "2",
               "--out", str(tmp_path / "sum.json")])
    assert rc == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("doc", [
    {"filling": [[4.9], [2, 4], [1, 1, 3], [1, 0, 1, 2]], "mu": [7, 4, 2, 1]},
    {"filling": [[4], [2, 4], [1, 1, 3], [1, 0, 1, 2]], "mu": [7.5, 4, 2, 1]},
    {"filling": [["4"], [2, 4], [1, 1, 3], [1, 0, 1, 2]], "mu": [7, 4, 2, 1]},
], ids=["float-entry", "float-part", "string-entry"])
def test_realize_rejects_non_integer_input(tmp_path, capsys, monkeypatch, doc):
    monkeypatch.setattr(cli, "realize", _never("realize"))
    infile = write_json(tmp_path / "in.json", doc)
    assert main(["realize", "--in", infile]) == 2
    assert "integer" in capsys.readouterr().err


def test_realize_rejects_boolean_filling(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "realize", _never("realize"))
    infile = write_json(tmp_path / "in.json", {"filling": [[True]], "mu": [1]})
    assert main(["realize", "--in", infile]) == 2
    assert "integer" in capsys.readouterr().err


def test_extract_rejects_exponent_coefficient(tmp_path, capsys):
    entry = {"r": 1, "entries": [[{"num": [["1e5", 0]]}]]}
    infile = write_json(tmp_path / "pair.json", {"first": entry, "second": entry})
    assert main(["extract", "--in", infile]) == 2
    assert "string p or p/q" in capsys.readouterr().err


@pytest.mark.parametrize("component", ["first", "second"])
def test_extract_rejects_negative_order_entry(tmp_path, capsys, component):
    one = {"num": [["1", 0]]}
    zero = {"num": []}
    inv_t = {"num": [["1", 0]], "den": [["1", 1]]}
    eye = {"r": 2, "entries": [[one, zero], [zero, one]]}
    doc = {"first": eye, "second": eye}
    doc[component] = {"r": 2, "entries": [[one, inv_t], [zero, one]]}
    infile = write_json(tmp_path / "pair.json", doc)
    assert main(["extract", "--in", infile]) == 2
    assert "non-negative order" in capsys.readouterr().err


@pytest.mark.parametrize("component, first", [
    ("first", "eye"), ("second", "eye"), ("second", "shear")])
def test_extract_rejects_singular_component(tmp_path, capsys, component, first):
    """A singular component exits 2 as rank deficient, the second one also
    behind a first component that must be diagonalized."""
    one = {"num": [["1", 0]]}
    zero = {"num": []}
    t_ = {"num": [["1", 1]]}
    eye = {"r": 2, "entries": [[one, zero], [zero, one]]}
    shear = {"r": 2, "entries": [[t_, one], [zero, one]]}
    doc = {"first": {"eye": eye, "shear": shear}[first], "second": eye}
    doc[component] = {"r": 2, "entries": [[one, t_], [one, t_]]}
    infile = write_json(tmp_path / "pair.json", doc)
    assert main(["extract", "--in", infile]) == 2
    err = capsys.readouterr().err
    assert "rank deficient" in err and "Traceback" not in err


def test_extract_has_no_verify_option(tmp_path, capsys):
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    assert main(["extract", "--in", infile, "--verify", "full"]) == 2


def test_extract_retries_exhausted_exits_4(tmp_path, capsys):
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    real_file = tmp_path / "real.json"
    main(["realize", "--in", infile, "--out", str(real_file)])
    rc = main(["extract", "--in", str(real_file), "--retries", "0"])
    assert rc == 4
    assert "retries exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "roundtrip"])
def test_negative_retries_exit_2_before_any_attempt(tmp_path, capsys,
                                                    monkeypatch, command):
    monkeypatch.setattr(cli, "extract_from_pair", _never("extraction"))
    monkeypatch.setattr(cli, "random_filling", _never("sampling"))
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    args = ["--in", infile] if command == "extract" else ["--trials", "2"]
    assert main([command, "--retries", "-3", *args]) == 2
    assert "--retries must be at least 0" in capsys.readouterr().err


def test_extract_verification_error_exits_3(tmp_path, capsys, monkeypatch):
    def boom(pair, rng, max_retries=20):
        raise VerificationError("certificate rejected")

    monkeypatch.setattr(cli, "extract_from_pair", boom)
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    real_file = tmp_path / "real.json"
    main(["realize", "--in", infile, "--out", str(real_file)])
    assert main(["extract", "--in", str(real_file)]) == 3
    assert "verification failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# roundtrip


def test_roundtrip_small_run_passes(tmp_path, capsys):
    outfile = tmp_path / "sum.json"
    rc = main(["roundtrip", "--trials", "3", "--seed", "11",
               "--out", str(outfile)])
    assert rc == 0
    doc = json.loads(outfile.read_text(encoding="utf-8"))
    assert doc["trials"] == 3 and doc["passes"] == 3
    assert doc["failures"] == 0 and doc["artifacts"] == []
    assert doc["genericity"]["successes"] == 3


def test_roundtrip_zero_trials(tmp_path, capsys):
    rc, out = run(capsys, "roundtrip", "--trials", "0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["trials"] == 0 and doc["passes"] == 0


def test_roundtrip_rejects_negative_trials_before_sampling(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "random_filling", _never("sampling"))
    rc = main(["roundtrip", "--trials", "-2", "--out", str(tmp_path / "sum.json")])
    assert rc == 2
    assert "--trials must be at least 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_roundtrip_injected_bug_exits_3_with_artifact(tmp_path, capsys,
                                                      monkeypatch):
    real_extract = cli.extract_from_pair

    def sabotaged(pair, rng, max_retries=20):
        res = real_extract(pair, rng, max_retries=max_retries)
        broken = [list(row) for row in res.filling.rows]
        broken[0][0] += 1
        return res._replace(filling=Filling(tuple(tuple(r) for r in broken)))

    monkeypatch.setattr(cli, "extract_from_pair", sabotaged)
    outfile = tmp_path / "sum.json"
    rc = main(["roundtrip", "--trials", "2", "--seed", "11",
               "--out", str(outfile)])
    assert rc == 3
    doc = json.loads(outfile.read_text(encoding="utf-8"))
    assert doc["failures"] >= 1
    assert doc["artifacts"]
    text = open(doc["artifacts"][0], encoding="utf-8").read()
    artifact = json.loads(text)
    assert "error" in artifact and "trial" in artifact
    assert text == json.dumps(artifact, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# --out


_WORK = {"extract": ["extract_from_pair"], "realize": ["realize"],
         "roundtrip": ["random_filling"], "count": ["count_fillings"],
         "counterexample": ["counterexample_demo"]}


@pytest.mark.parametrize("command", sorted(_WORK))
def test_out_into_missing_directory_exits_2_before_work(tmp_path, capsys,
                                                        monkeypatch, command):
    for name in _WORK[command]:
        monkeypatch.setattr(cli, name, _never(name))
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    args = {"extract": ["--in", infile], "realize": ["--in", infile],
            "roundtrip": ["--trials", "2"], "count": ["1", "1", "1,1"],
            "counterexample": []}[command]
    out = tmp_path / "missing" / "out.json"
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "does not exist" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


def test_out_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "counterexample_demo", _never("counterexample"))
    assert main(["counterexample", "--out", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err


def test_out_directory_removed_during_work_exits_2(tmp_path, capsys,
                                                   monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    real_demo = cli.counterexample_demo

    def demo_then_remove():
        doc = real_demo()
        shutil.rmtree(out_dir)
        return doc

    monkeypatch.setattr(cli, "counterexample_demo", demo_then_remove)
    assert main(["counterexample", "--out", str(out_dir / "ce.json")]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err


def test_roundtrip_artifact_write_failure_exits_2(tmp_path, capsys,
                                                  monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def remove_then_fail(pair, rng, max_retries=20):
        shutil.rmtree(out_dir)
        raise RankError("injected failure")

    monkeypatch.setattr(cli, "extract_from_pair", remove_then_fail)
    rc = main(["roundtrip", "--trials", "1", "--out", str(out_dir / "sum.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "roundtrip-failure-0001.json" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# count


def test_count_golden_triple(capsys):
    rc, out = run(capsys, "count", "7,4,2,1", "8,5,4,2", "11,10,7,5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 7
    assert doc["mu"] == [7, 4, 2, 1]


def test_count_content_symmetry_on_golden_triple(capsys):
    rc1, out1 = run(capsys, "count", "7,4,2,1", "8,5,4,2", "11,10,7,5")
    rc2, out2 = run(capsys, "count", "8,5,4,2", "7,4,2,1", "11,10,7,5")
    assert rc1 == rc2 == 0
    assert json.loads(out1)["count"] == json.loads(out2)["count"] == 7


def test_count_weight_mismatch_is_zero(capsys):
    rc, out = run(capsys, "count", "2,1", "1", "5,3")
    assert rc == 0
    assert json.loads(out)["count"] == 0


def test_count_bad_partition_exits_2(capsys):
    assert main(["count", "2,x", "1", "3"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["1_0", "+3", "-0", "\u0663", "3,,1"])
def test_count_rejects_number_forms_json_refuses(capsys, form):
    """A part is ASCII digits, as in a JSON coefficient: an underscore, a
    sign, another script's digit and an empty part each exit 2."""
    assert main(["count", form, "0", form]) == 2
    assert "bad partition" in capsys.readouterr().err


def test_count_reads_blanks_and_the_empty_argument(capsys):
    rc, out = run(capsys, "count", " 2 , 1 ", "", "2,1")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["mu"], doc["nu"], doc["count"]) == ([2, 1], [], 1)


def test_count_increasing_parts_exit_2(capsys):
    assert main(["count", "1,2", "1", "3,1"]) == 2


def test_count_rejects_long_partition_before_counting(capsys, monkeypatch):
    """A partition of more parts than a filling may have rows exits 2,
    without a traceback and before any counting."""
    monkeypatch.setattr(cli, "count_fillings", _never("counting"))
    ones = ",".join(["1"] * 50)
    assert main(["count", "0", ones, ones]) == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert main(["count", ",".join(["1"] * (MAX_SIZE + 1)), "1", "1"]) == 2


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_report(capsys):
    rc, out = run(capsys, "counterexample")
    assert rc == 0
    doc = json.loads(out)
    assert doc["fillings_equal"] is True
    assert doc["invariants_equal"] is True
    assert doc["only_trivial_solution"] is True
    assert doc["pairs_equivalent"] is False
    assert doc["filling"]["rows"] == [[8], [2, 7], [1, 2, 4]]


def test_counterexample_deterministic_bytes(capsys):
    rc1, out1 = run(capsys, "counterexample")
    rc2, out2 = run(capsys, "counterexample")
    assert rc1 == rc2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# parser plumbing


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "realize" in capsys.readouterr().out


def test_unknown_command_exits_nonzero(capsys):
    assert main(["frobnicate"]) != 0


def test_parser_is_built_once_per_process(capsys):
    cli._parser.cache_clear()
    try:
        assert main(["count", "1", "1", "1,1"]) == 0
        assert main(["count", "2", "1", "2,1", "--seed", "3"]) == 0
        assert main(["frobnicate"]) != 0
        assert cli._parser.cache_info().misses == 1
    finally:
        cli._parser.cache_clear()
    first, second = capsys.readouterr().out.split("}\n{")
    assert json.loads(first + "}")["count"] == 1
    assert json.loads("{" + second)["seed"] == 3


def test_seed_echoed_everywhere(tmp_path, capsys):
    """Every command echoes --seed, and writes the same bytes to stdout as
    to --out."""
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    real_file = tmp_path / "real.json"
    assert main(["realize", "--in", infile, "--out", str(real_file)]) == 0
    for argv in (["realize", "--in", infile], ["extract", "--in", str(real_file)],
                 ["roundtrip", "--trials", "1"], ["count", "1", "1", "1,1"],
                 ["counterexample"]):
        out_file = tmp_path / "out.json"
        rc, out = run(capsys, *argv, "--seed", "42")
        assert rc == 0 and json.loads(out)["seed"] == 42, argv[0]
        assert main([*argv, "--seed", "42", "--out", str(out_file)]) == 0
        assert capsys.readouterr().out == ""
        assert out_file.read_bytes() == out.encode("utf-8"), argv[0]


# ---------------------------------------------------------------------------
# golden output bytes


def _golden_outputs(tmp_path, capsys):
    """Stdout of each pinned invocation, keyed by a short label."""
    infile = write_json(tmp_path / "in.json", GOLDEN_FILLING_DOC)
    real_file = tmp_path / "real.json"
    assert main(["realize", "--in", infile, "--out", str(real_file)]) == 0
    stair_real = {}
    for r in (5, 6):
        stair = write_json(tmp_path / f"stair{r}.json", {
            "filling": [[0] * (j - 1) + [r - j + 1] for j in range(1, r + 1)],
            "mu": list(range(r, 0, -1))})
        stair_real[r] = str(tmp_path / f"stair_real{r}.json")
        assert main(["realize", "--in", stair, "--out", stair_real[r]]) == 0
    invocations = {
        "realize": ["realize", "--in", infile],
        "extract_golden": ["extract", "--in", str(real_file), "--seed", "7"],
        "extract_staircase_r5": ["extract", "--in", stair_real[5], "--seed", "7"],
        # r = 6 at the first staircase CLI seed of the benchmark
        "extract_staircase_r6": ["extract", "--in", stair_real[6],
                                 "--seed", "288545019"],
        "roundtrip": ["roundtrip", "--trials", "5", "--seed", "11"],
        "counterexample": ["counterexample"],
    }
    capsys.readouterr()
    outputs = {}
    for label, argv in invocations.items():
        rc, out = run(capsys, *argv)
        assert rc == 0, label
        outputs[label] = out
    return outputs


# sha256 of each invocation's stdout: pins the JSON bytes themselves, where
# the determinism tests above only compare two runs of the same code
GOLDEN_SHA256 = {
    "realize": "b39da7409b9451a402079963747b886ba8c73cd4bf68c8f8e7f0efa36d539530",
    "extract_golden": "f6cb5eeaf7f57895be7945ca8c3b38bda95a51cbdfde2f2779ebbac4ebe9afae",
    "extract_staircase_r5": "51e3c2c7d620c357ecea68915f664731b36777102396abd908027e05bc7f5909",
    "extract_staircase_r6": "be61c49844d44d998d70278f56cf303a5ec3fc60fbe2e1836bd0463c9e75e1dd",
    "roundtrip": "2c7a213753a675eec466e46d7144502c0ca791b7211a06e2fcb37993d6d0bb10",
    "counterexample": "2ead2275bb9e7454cbfac94dd3a74282f58495613815f8c2b48ff6d9a1d783ca",
}


def test_golden_output_digests(tmp_path, capsys):
    outputs = _golden_outputs(tmp_path, capsys)
    got = {label: hashlib.sha256(out.encode("utf-8")).hexdigest()
           for label, out in outputs.items()}
    assert got == GOLDEN_SHA256


# ---------------------------------------------------------------------------
# the JSON writer


def _json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


_leaves = (st.text() | st.integers() | st.integers(-10 ** 400, 10 ** 400) | st.booleans()
           | st.none()
           | st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", '"\\/\n\t']))
_trees = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(doc=_trees)
@example(doc={})
@example(doc=[])
@example(doc={"": [[], {}, ()], "\u00ff": {"a": [None, True, False, 0, -1]}})
@example(doc=[2 ** 4000, -(2 ** 4000)])
def test_writer_matches_json_dumps(doc):
    assert cli._dumps(doc) == _json_text(doc)


@pytest.mark.parametrize("doc", [1.5, [1, {"a": 0.0}], {2: "a"}, {"a": {None: []}},
                                 {True: 1}])
def test_writer_takes_no_float_and_no_non_str_key(doc):
    with pytest.raises(TypeError):
        cli._dumps(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", [lambda x: x, lambda x: [1, {"a": x}],
                                   lambda x: {x: 1}])
def test_writer_rejects_non_finite_floats_like_json(bad, where):
    doc = where(bad)
    with pytest.raises(ValueError):
        _json_text(doc)
    with pytest.raises(TypeError):  # no float is written at all
        cli._dumps(doc)


@pytest.mark.parametrize("doc", [object(), [1, {"a": {1, 2}}], {(1, 2): 3},
                                 {"a": 1, 2: "mixed keys do not sort"}])
def test_writer_raises_type_error_like_json(doc):
    with pytest.raises(TypeError):
        _json_text(doc)
    with pytest.raises(TypeError):
        cli._dumps(doc)
