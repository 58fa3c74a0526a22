import json

import pytest

from weilbc.checks import RunConfig, Workspace, run_check
from weilbc.cli import main, parse_pairs
from weilbc.errors import ConfigInvalid


def test_parse_pairs():
    assert parse_pairs("1:1,2:2") == ((1, 1), (2, 2))
    assert parse_pairs("") == ()
    for bad in ("1", "1:x", "1:2:3"):
        with pytest.raises(ConfigInvalid):
            parse_pairs(bad)


def test_cli_json_report(capsys):
    # the Sp4 run serializes cases whose values carry operator denominators
    for args, count in [(["--n", "1", "--m", "2", "--pairs", "1:1", "--sample", "5", "--seed", "3"], 5),
                        (["--n", "2", "--m", "2", "--sample", "4", "--seed", "0"], 4)]:
        rc = main(["star", "--p", "3", *args])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)
        assert data["check"] == "star"
        assert set(data) == {"check", "config", "cases", "skipped", "summary", "seconds"}
        assert data["summary"] == {"pass": count, "fail": 0, "skip": 0}
        assert data["skipped"] == []
        assert len(data["cases"]) == count
        assert all(set(c) == {"input", "lhs", "rhs", "equal"} for c in data["cases"])


def test_cli_tsv_report(capsys):
    rc = main(["gauss", "--p", "3", "--m", "2", "--format", "tsv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "input\tlhs\trhs\tequal"
    assert lines[-1].startswith("#summary")


def test_cli_rejects_bad_pair(capsys):
    rc = main(["star", "--m", "2", "--pairs", "1:2", "--sample", "3"])
    assert rc == 2


def test_cli_rejects_bad_sample(capsys):
    rc = main(["star", "--sample", "few"])
    assert rc == 2


def test_cli_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["gauss", "--p", "3", "--m", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["summary"]["fail"] == 0


def test_run_check_unknown_name():
    with pytest.raises(ConfigInvalid):
        run_check("nonsense", RunConfig())


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        RunConfig(sample=0).validate()
    with pytest.raises(ConfigInvalid):
        RunConfig(m=4, pairs=((2, 2),)).validate()  # 2·2 ≢ 2 (mod 4)
    RunConfig(m=4, pairs=((2, 1), (3, 3))).validate()


def test_reports_deterministic_under_seed():
    cfg = RunConfig(p=3, n=1, m=2, pairs=((1, 1),), sample=12, seed=99)
    r1 = run_check("star", cfg, Workspace(cfg))
    r2 = run_check("star", cfg, Workspace(cfg))
    assert [c.__dict__ for c in r1.cases] == [c.__dict__ for c in r2.cases]


def test_all_mode_subsumes(case_digest):
    cfg = RunConfig(p=3, n=1, m=2, pairs=((1, 1),), sample=4, seed=1)
    report = run_check("all", cfg)
    tags = {c.input.split("]")[0].strip("[") for c in report.cases if c.input.startswith("[")}
    assert {"star", "gsp", "support", "parabolic", "sl2-torus", "homomorphism", "gyoja-bijection", "gauss"} <= tags
    assert report.ok
    # the n=1 config skips orthogonal; a skip is recorded apart, never as a passing case
    assert [name for name, _ in report.skipped] == ["orthogonal"]
    assert "orthogonal" not in tags
    summary = report.to_dict()["summary"]
    assert summary == {"pass": len(report.cases), "fail": 0, "skip": 1}
    tsv = report.to_tsv().splitlines()
    assert tsv[-2].startswith("#skipped\torthogonal\t") and "\tskip=1\t" in tsv[-1]
    assert case_digest(report) == "62965a6a03a67c076a97a4724a074a16a6991d47aee3e3d7f072a3d26dbde6fc"


@pytest.mark.parametrize("args", [["--pairs", "1"], ["--pairs", "1:x"], ["--n", "0"], ["--m", "0"],
                                  ["--base-degree", "0"], ["--m", "1"]])
def test_cli_rejects_malformed_or_empty_config(args, capsys):
    assert main(["star", "--sample", "3", *args]) == 2
    assert "ConfigInvalid" in capsys.readouterr().err


def test_check_without_cases_is_skipped_not_passed():
    cfg = RunConfig(p=3, n=1, m=1, sample=2)
    with pytest.raises(ConfigInvalid):
        run_check("star", cfg)
    report = run_check("all", cfg)
    assert [name for name, _ in report.skipped] == ["star", "gsp", "orthogonal", "gyoja-bijection"]
    assert report.cases and report.ok
