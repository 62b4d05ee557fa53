import json

import pytest

from mulcm.cli import main


def test_verify_lemma_list(capsys):
    assert main(["verify-lemma", "--list"]) == 0
    out = capsys.readouterr().out.split()
    for name in ("m1", "spe", "init", "landau", "keyb", "le1", "tail",
                 "getgstarq", "auxmajorstar2", "sigma-window"):
        assert name in out


def test_verify_lemma_unknown_target(capsys):
    assert main(["verify-lemma", "definitely-not-a-lemma"]) == 2


def test_verify_lemma_landau_json(tmp_path, capsys):
    out = tmp_path / "landau.json"
    assert main(["verify-lemma", "landau", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["lemma"] == "landau"
    assert payload["pass"] is True
    assert payload["reports"][0]["passed"] is True
    assert payload["manifest"]["versions"]["python"]
    assert "landau" in payload["manifest"]["config"]["name"]


def test_verify_lemma_failing_target_exits_1(capsys):
    # the 0.445 window cap is exceeded at d = 757, honestly reported
    assert main(["verify-lemma", "sigma-window", "--xmax", "2000"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_sigma_scan_window(capsys, tmp_path):
    code = main(["sigma-scan", "--to", "2000", "--window", "422..2000"])
    assert code == 1  # S(757) > 0.445
    out = capsys.readouterr().out
    assert "757" in out and "FAIL" in out
    code = main(["sigma-scan", "--to", "2000", "--window", "2..2000"])
    assert code == 0  # no cap applies below 422


def test_short_scan_reports_the_windows_it_reaches(capsys):
    # A scan that ends before a report's window starts leaves that report
    # out instead of refusing the whole run as an empty window.
    assert main(["sigma-scan", "--to", "1000"]) == 1  # S(757) > 0.445
    assert main(["sigma-scan", "--to", "400"]) == 0
    assert main(["verify-lemma", "sigma-window", "--xmax", "1000"]) == 1
    out, err = capsys.readouterr()
    assert "empty window" not in out + err
    assert "757" in out and "sigma-bump" not in out


def test_sigma_scan_bad_window_usage(capsys):
    assert main(["sigma-scan", "--to", "100", "--window", "17"]) == 2


def test_sigma_scan_resume_flow(tmp_path, capsys):
    ck = str(tmp_path / "ck.csv")
    assert main(["sigma-scan", "--to", "1000", "--checkpoint", ck,
                 "--checkpoint-every", "500", "--window", "2..1000"]) == 0
    assert main(["sigma-scan", "--to", "1500", "--checkpoint", ck,
                 "--resume"]) == 0
    out = capsys.readouterr().out
    assert "running max" in out
    # window into the unknown prefix is a usage error after resume
    assert main(["sigma-scan", "--to", "2000", "--checkpoint", ck,
                 "--resume", "--window", "2..2000"]) == 2


def test_budget_exit_code(monkeypatch):
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", "1000")
    assert main(["sigma-scan", "--to", "1000000"]) == 3


def test_constants_roundtrip(tmp_path, capsys):
    reg = tmp_path / "reg.json"
    assert main(["constants", "--write", str(reg)]) == 0
    assert main(["constants", "--check", str(reg)]) == 0
    data = json.loads(reg.read_text())
    data["A"]["enclosure"]["lo"] = 0.0
    reg.write_text(json.dumps(data))
    assert main(["constants", "--check", str(reg)]) == 1
    assert main(["constants", "--check", str(tmp_path / "missing.json")]) == 2


def test_bound_and_table(tmp_path, capsys):
    out = tmp_path / "bound.json"
    assert main(["bound", "--x-min", "1.1e7", "--ratio", "22.99",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["bound"] == pytest.approx(0.678077, abs=1e-5)
    assert len(payload["result"]["per_j"]) == 22

    tbl = tmp_path / "table.json"
    assert main(["theorem-table", "--out", str(tbl)]) == 0
    table = json.loads(tbl.read_text())["table"]
    assert table["combined_ok"] is True


def test_sieve_summary(tmp_path, capsys):
    out = tmp_path / "sieve.json"
    assert main(["sieve", "--to", "100000", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["pi"] == 9592
    assert payload["summary"]["mertens"] == -48
    assert payload["summary"]["squarefree_count"] == 60794


def test_mertens_table_cli(tmp_path, capsys):
    bin_path = tmp_path / "m.bin"
    json_path = tmp_path / "m.json"
    assert main(["mertens-table", "--limit", "3000", "--m0", "6",
                 "--out", str(bin_path), "--json-out", str(json_path)]) == 0
    payload = json.loads(json_path.read_text())
    assert all(c["agree"] for c in payload["reconstruction_checks"])
    digest = payload["manifest"]["outputs"]["table"]["sha256"]
    assert len(digest) == 64
