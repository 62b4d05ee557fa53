import argparse
import json
import os
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from mulcm import sieve
from mulcm.cli import _build_parser, main


def test_verify_lemma_list(capsys):
    assert main(["verify-lemma", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted([
        "m1", "m2", "m3", "m4", "spe", "aux1", "aux2", "aux3", "aux-caps",
        "init", "moebius-square", "majorstar1", "major1starter", "majorstar2",
        "auxmajorstar2", "getgstarq", "convol0", "convol", "landau", "keyb",
        "le1", "le2", "tail", "sigma-window"])


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
    simd = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    assert payload["manifest"]["versions"]["numpy_simd"] == simd
    assert payload["manifest"]["versions"]["cpus"] == len(os.sched_getaffinity(0))
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
    report = tmp_path / "scan.json"
    assert main(["sigma-scan", "--to", "1000", "--checkpoint", ck,
                 "--checkpoint-every", "500", "--window", "2..1000",
                 "--out", str(report)]) == 0
    digest = json.loads(report.read_text())["manifest"]["outputs"]["checkpoint"]
    assert digest["path"] == ck and len(digest["sha256"]) == 64
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


def test_committed_registry_matches(capsys):
    # data/constants.json is the frozen registry the benchmark also checks;
    # any change to a registered enclosure (even 1 ulp of an H_q end moves
    # its width by about 2.5e-7 relative) must come with a regenerated file.
    committed = pathlib.Path(__file__).resolve().parents[1] / "data" / "constants.json"
    assert main(["constants", "--check", str(committed)]) == 0, capsys.readouterr().out


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


@pytest.mark.parametrize("n, line", [
    (1, "sieve to 1: pi=0 mertens=1 squarefree=1"),
    (2, "sieve to 2: pi=1 mertens=0 squarefree=2"),
    (3, "sieve to 3: pi=2 mertens=-1 squarefree=3"),
    (65_536, "sieve to 65536: pi=6542 mertens=14 squarefree=39844"),
    (65_537, "sieve to 65537: pi=6543 mertens=13 squarefree=39845"),
])
def test_sieve_summary_edges(monkeypatch, capsys, n, line):
    # The prime count starts at n = 2 (phi(n) = n - 1); 65 536 is the
    # smallest table and 65 537 a prime just past it.
    monkeypatch.setattr(sieve, "_table_block", None)
    monkeypatch.setattr(sieve, "_table_cum", None)
    assert main(["sieve", "--to", str(n)]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_sieve_summary_reads_the_table_in_place(monkeypatch, tmp_path, capsys):
    # On a prebuilt table the command allocates no array over n: its traced
    # peak stays below 2 bytes per n.
    monkeypatch.setattr(sieve, "_table_block", None)
    monkeypatch.setattr(sieve, "_table_cum", None)
    n = 10 ** 6
    sieve._table(n)
    out = tmp_path / "sieve.json"
    tracemalloc.start()
    try:
        assert main(["sieve", "--to", str(n), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n, peak
    assert capsys.readouterr().out == "sieve to 1000000: pi=78498 mertens=212 squarefree=607926\n"
    summary = json.loads(out.read_text())["summary"]
    assert summary == {"n": n, "pi": 78498, "mertens": 212, "squarefree_count": 607926,
                       "squarefree_excess_over_sqrt": -0.0011018540266668423}


def test_bound_reports_windows_and_table_passes(capsys):
    assert main(["bound", "--x-min", "1.1e7", "--ratio", "22.99"]) == 0
    assert "1 dyadic window(s), 1 pass(es) over the per-j reductions" in capsys.readouterr().out
    # A degenerate x_min needs more windows and a second pass over the tables.
    assert main(["bound", "--x-min", "100", "--ratio", "22.99"]) == 0
    assert "4 dyadic window(s), 2 pass(es) over the per-j reductions" in capsys.readouterr().out


def test_bound_oversized_ratio_exits_budget(monkeypatch, capsys):
    monkeypatch.delenv("MULCM_MEMORY_BUDGET", raising=False)
    assert main(["bound", "--x-min", "1e7", "--ratio", "250"]) == 3


def test_readme_command_line_lists_every_subcommand():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    documented = set(re.findall(r"^mulcm ([a-z-]+)", block, re.M))
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert documented == set(subparsers.choices)
