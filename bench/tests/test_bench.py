"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(BENCH, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


def _satisfying(expected: dict) -> dict:
    """Outcomes that meet every expected entry exactly."""
    out = {}
    for name, want in expected.items():
        got = {k: v for k, v in want.items() if k in ("passed", "worst_arg", "value")}
        if "radius_max" in want:
            got["radius"] = want["radius_max"] / 2
        out[name] = got
    return out


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_expected_table_grades_itself_clean():
    for profile, table in EXPECTED.items():
        for workload in workloads.WORKLOADS:
            assert workloads.grade(_satisfying(table[workload]), table[workload]) == {}


def test_by_design_failures_are_expected_entries():
    full = EXPECTED["full"]
    assert full["scan"]["sigma-cap-0.445"] == {"passed": False, "worst_arg": 757}
    assert full["tables"]["squarefree-count-row(X0=82005)"]["worst_arg"] == 82040
    assert full["tables"]["squarefree-count-row(X0=438653)"]["worst_arg"] == 441352
    assert full["constants"]["h-cap-H1(g1^2)"]["passed"] is False


def test_wrong_expected_verdict_is_a_deviation():
    table = EXPECTED["full"]["scan"]
    outcomes = _satisfying(table)
    wrong = copy.deepcopy(table)
    wrong["sigma-cap-0.445"]["passed"] = True
    assert list(workloads.grade(outcomes, wrong)) == ["sigma-cap-0.445"]
    del outcomes["oracle-equivalence"]
    assert "oracle-equivalence" in workloads.grade(outcomes, table)


def test_values_compare_at_stated_digits():
    table = {"S(757)": {"value": 0.4453092, "digits": 7}}
    assert workloads.grade({"S(757)": {"value": 0.44530923025781416}}, table) == {}
    assert workloads.grade({"S(757)": {"value": 0.4453102}}, table)


def test_layer_metrics_self_and_inclusive_time():
    def span(i, name, start, end, parent, **meta):
        return {"id": i, "name": name, "site": "bench", "parent": parent,
                "run": "r", "start": start, "end": end, **meta}
    trace = [
        span(0, "sigma.sigma_scan", 0.0, 10.0, None, kind="fresh"),
        span(1, "sieve.mu_upto", 1.0, 4.0, 0),
        span(2, "sieve.sieve_range", 1.5, 3.5, 1, n=100),
        span(3, "sigma.sigma_scan", 10.0, 12.0, None, kind="resume"),
        span(4, "sieve.sieve_range", 10.5, 11.0, 3, n=50),
    ]
    m = spans.layer_metrics(trace, verdict_s=12.5, scan_size=1000)
    assert m["sigma.self_s"] == (10.0 - 3.0) + (2.0 - 0.5)
    assert m["sieve.s"] == 3.0 + 0.5
    assert m["sieve.calls"] == 2
    assert m["sieve.n"] == 150 and m["sieve.reuse"] == 100 / 150
    assert m["sigma.scan_s"] == 10.0 and m["sigma.resume_s"] == 2.0
    assert m["sigma.d_per_s"] == 100.0
    assert m["trace.coverage"] == 12.0 / 12.5
    assert set(m) | {"run.cpu_s", "trace.overhead_s"} == {n for n, _ in spans.PER_LAYER}


def test_smoke_tiny_all_workloads(tmp_path):
    out = tmp_path / "record.json"
    rc, lines = _run("--workload", "all", "--profile", "tiny", "--seconds", "1",
                     "--trace", "1", "--seed", "7", "--out", str(out))
    assert rc == 0, lines
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for w in workloads.WORKLOADS:
        for name in ("verdict_s", "setup_s", "peak_rss_mb", "check_error_rate"):
            assert any(line.startswith(f"{w}  {name} ") for line in lines), (w, name)
    record = json.loads(out.read_text())
    for key in ("git_sha", "nproc", "cpu_model", "python", "numpy", "mpmath", "seed"):
        assert key in record["record"]
    for res in record["results"]:
        assert set(res["per_layer"]) == {n for n, _ in spans.PER_LAYER}
        assert res["per_layer"]["trace.coverage"] >= 0.95
        assert res["end_to_end"]["verdict_s"]["n"] >= 1


def test_wrong_expected_table_fails_the_run(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests", "results"))
    for name in ("src", "data"):
        os.symlink(os.path.join(ROOT, name), tmp_path / name)
    wrong = copy.deepcopy(EXPECTED)
    wrong["tiny"]["scan"]["sigma-cap-0.445"]["worst_arg"] = 758
    (tmp_path / "bench" / "expected.json").write_text(json.dumps(wrong))
    rc, lines = _run("--workload", "scan", "--profile", "tiny", "--seconds", "1",
                     cwd=tmp_path)
    last = json.loads(lines[-1])
    assert rc == 1
    assert not last["correct"] and last["failed"] >= 1
    assert any("check_error_rate" in line and not line.split()[2].startswith("0.0000")
               for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests", "results"))
    rc, lines = _run("--workload", "scan", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert rc not in (0, None)
    assert not any(line.startswith("{") for line in lines)
