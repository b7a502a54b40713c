import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arcalg.cli import main
from arcalg.arc_algebra import StructureTable, check_associativity, structure_table
from arcalg.cohomology import (intersection_cohomology, kernel_contains_both, odd_normalization,
                               poincare)
from arcalg.diagrams import Shape, enumerate_weights
from arcalg.ktheory import k0_matrix

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["^^vv", "^v^v", "v^^v", "^vv^", "v^v^", "vv^^"]


def test_enumerate_standard(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--k", "2", "--standard")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_fixedpoints_count(capsys):
    code, out, _ = run(capsys, "fixedpoints", "--n", "4", "--k", "2",
                       "--a", "v^v^", "--b", "vv^^")
    assert code == 0
    assert out.splitlines()[0] == "count 2"


def test_fixedpoints_rejects_weights_of_another_shape(capsys):
    code, out, err = run(capsys, "fixedpoints", "--n", "9", "--k", "1",
                         "--a", "v^v^", "--b", "vv^^")
    assert code == 1 and out == ""
    assert "weight --a v^v^ has shape (4,2), not --n 9 --k 1" in err
    code, _, err = run(capsys, "fixedpoints", "--n", "4", "--k", "1",
                       "--a", "^^^v", "--b", "vv^^")
    assert code == 1 and "weight --b vv^^" in err


def test_multiply_paper_example(capsys):
    code, out, _ = run(capsys, "multiply", "--alpha", "-1",
                       "--left", "vv^^,v^v^", "--right", "v^v^,vv^^")
    assert code == 0
    assert "x-form: x1 - x2" in out


def test_multiply_json(capsys):
    code, out, _ = run(capsys, "multiply", "--format", "json",
                       "--left", "vv^^,v^v^", "--right", "v^v^,vv^^")
    data = json.loads(out)
    assert data["x_form"] == "x1 + x2"
    assert all(t["src"] == "vv^^" and t["tgt"] == "vv^^" for t in data["terms"])


def test_cup_and_glue(capsys):
    code, out, _ = run(capsys, "cup", "--weight", "vv^^")
    assert code == 0 and "m(vv^^):" in out
    code, out, _ = run(capsys, "glue", "--a", "^v^v", "--b", "vv^^",
                       "--format", "json")
    data = json.loads(out)
    assert data["circles"] == 1


def test_cohomology_pair(capsys):
    code, out, _ = run(capsys, "cohomology", "--a", "v^v^", "--b", "vv^^",
                       "--format", "json")
    data = json.loads(out)
    assert data["generators"] == [1] and data["dim"] == 2
    code, out, _ = run(capsys, "cohomology", "--a", "^^vv", "--b", "v^^v")
    assert "EMPTY" in out


@pytest.mark.parametrize("b, glues", [("vv^^", 1), ("^^vv", 0)], ids=["nonempty", "empty"])
def test_cohomology_pair_glues_once(capsys, count_glues, b, glues):
    # an empty pair has no fixed points and is not glued at all
    calls = count_glues()
    assert run(capsys, "cohomology", "--a", "v^^v", "--b", b)[0] == 0
    assert calls == [glues]


def test_validation_error_exit_code(capsys):
    code, _, err = run(capsys, "fixedpoints", "--n", "4", "--k", "2",
                       "--a", "vxv^", "--b", "vv^^")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "multiply", "--left", "v^,^v", "--right", "v^,^v")
    assert code == 1  # shape mismatch in composition


def test_check_failure_exit_code(capsys):
    # alpha = -1 is not associative: an expected failure, exit 0
    code, out, _ = run(capsys, "check", "--n", "4", "--k", "2",
                       "--alpha", "-1", "--which", "assoc")
    assert code == 0
    assert out == ("associativity: FAIL (expected)\n"
                   "  witness: a=[v^v^|vv^^|v^v^] b=[vv^^|v^v^|v^v^] c=[v^v^|vv^^|v^v^]: "
                   "(ab)c=- 2*x1 != a(bc)=2*x1\n")


@pytest.mark.parametrize("alpha", ["1", "-1"])
def test_check_nested_is_a_usage_error(capsys, alpha):
    # nested = alpha -1 is checked by --which orders --alpha -1
    with pytest.raises(SystemExit) as exc:
        main(["check", "--n", "4", "--k", "2", "--alpha", alpha, "--which", "nested"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err.startswith("usage: arcalg check") and "invalid choice: 'nested'" in err


def test_check_which_offers_each_registered_check(capsys):
    from arcalg.cli import _CHECKS
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    names = [c.name for c in _CHECKS]
    assert "unit" in names
    assert f"--which {{{','.join(names)},all}}" in capsys.readouterr().out


def test_check_pass(capsys):
    code, out, _ = run(capsys, "check", "--n", "2", "--k", "1", "--which", "all")
    assert code == 0
    assert out.count("PASS") == 4


def test_k0_csv(capsys):
    code, out, _ = run(capsys, "k0", "--n", "2", "--k", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == ",^v,v^"


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--n", "4", "--k", "2", "--format", "json")
    assert code == 0
    again = StructureTable.from_json(out)
    direct = structure_table(Shape(4, 2), alpha=1)
    assert again.basis == direct.basis
    assert again.products == direct.products


def test_deterministic_output(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code = main(["table", "--n", "4", "--k", "2", "--alpha", "-1",
                     "--format", "json", "--out", str(f)])
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_unwritable_out_path_is_a_clean_error(capsys, tmp_path):
    target = tmp_path / "missing" / "f.txt"
    code, out, err = run(capsys, "enumerate", "--n", "2", "--k", "1", "--out", str(target))
    assert code == 1 and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["cohomology", "--a", ""],
    ["cohomology", "--a", "v^", "--b", ""],
    ["cup", "--weight", ""],
    ["multiply", "--left", "", "--right", "v^,v^"],
    ["multiply", "--left", "v^,v^", "--right", ""],
    ["enumerate", "--n", "2", "--k", "1", "--out", ""],
], ids=["a", "b", "weight", "left", "right", "out"])
def test_empty_flag_values_are_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["table", "--n", "x", "--k", "1"],
    ["multiply", "--alpha", "2", "--left", "v^,^v", "--right", "^v,v^"],
    ["frobnicate"],
    [],
    ["check", "--n", "2", "--k", "1", "--format", "json"],
])
def test_usage_errors_exit_1_with_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith("usage: arcalg") and "error:" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--help"])
    assert exc.value.code == 0 and "usage: arcalg table" in capsys.readouterr().out


def run_script(name, *argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("max_n, error", [("1", "error: --max-n 1"),
                                          ("x", "error: argument --max-n: invalid int")])
@pytest.mark.parametrize("name", ["run_checks.py", "export_tables.py"])
def test_scripts_refuse_a_range_without_shapes(name, max_n, error, tmp_path):
    proc = run_script(name, "--max-n", max_n, *(["--out-dir", str(tmp_path / "out")]
                                                if name == "export_tables.py" else []))
    assert proc.returncode == 1 and proc.stdout == ""
    assert error in proc.stderr
    assert not (tmp_path / "out").exists()


def test_scripts_run_the_smallest_range(tmp_path):
    proc = run_script("run_checks.py", "--max-n", "2")
    assert proc.returncode == 0 and proc.stdout.count("(2,1)") == 8
    proc = run_script("export_tables.py", "--max-n", "2", "--out-dir", str(tmp_path))
    assert proc.returncode == 0 and proc.stdout == "wrote shape (2,1)\n"


def test_bench_jobs_runs_the_smallest_jobs(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("bench_jobs.py", "--shapes", "4,2", "--repeat", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    runs = {(r["job"], r["alpha"]): r for r in report["runs"]}
    assert len(report["runs"]) == len(runs) == 8 and len(report["summary"]) == 8
    for alpha in (1, -1):
        table = structure_table(Shape(4, 2), alpha).to_json().encode()
        assert runs["structure_table", alpha]["sha256"] == hashlib.sha256(table).hexdigest()
        assert runs["check_order_independence", alpha]["ok"]
        assert runs["check_order_independence", alpha]["sha256"] is None
    assert runs["check_associativity", 1]["ok"] and not runs["check_associativity", -1]["ok"]
    witness = check_associativity(Shape(4, 2), -1).witness.encode()
    assert runs["check_associativity", -1]["sha256"] == hashlib.sha256(witness).hexdigest()
    weights = enumerate_weights(Shape(4, 2))
    outputs = "\n".join(repr((poincare(w, v, shifted=True), intersection_cohomology(w, v),
                               kernel_contains_both(w, v), odd_normalization(w, v)))
                         for w in weights for v in weights)
    assert runs["cohomology", None]["ok"] is None
    assert runs["cohomology", None]["sha256"] == hashlib.sha256(outputs.encode()).hexdigest()
    k0 = k0_matrix(Shape(4, 2)).to_json().encode()
    assert runs["k0", None]["ok"] is None
    assert runs["k0", None]["sha256"] == hashlib.sha256(k0).hexdigest()
    assert all(r["wall_s"] > 0 and 0 < r["import_rss_mb"] <= r["peak_rss_mb"]
               for r in report["runs"])
    assert all(0 < s["median_import_rss_mb"] <= s["median_peak_rss_mb"]
               for s in report["summary"])


def test_bench_jobs_runs_the_jobs_asked_for(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("bench_jobs.py", "--shapes", "2,1", "3,1", "--jobs", "cohomology",
                      "--repeat", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert [(r["job"], r["shape"], r["alpha"]) for r in report["runs"]] == [
        ("cohomology", [2, 1], None), ("cohomology", [3, 1], None)]
    assert proc.stdout.startswith("cohomology (2, 1) ")


@pytest.mark.parametrize("argv", [["--shapes", "4,3"], ["--shapes", "four"], ["--repeat", "0"]])
def test_bench_jobs_refuses_bad_input(argv, tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("bench_jobs.py", *argv, "--out", str(out))
    assert proc.returncode == 1 and proc.stdout == "" and "error: " in proc.stderr
    assert not out.exists()


def _count_table_builds(monkeypatch, module):
    """Replace ``module.structure_table`` with a wrapper counting builds per argument tuple."""
    builds = {}
    real = module.structure_table

    def counting(shape, alpha=1, standard_only=False):
        key = (shape, alpha)
        builds[key] = builds.get(key, 0) + 1
        return real(shape, alpha, standard_only)

    monkeypatch.setattr(module, "structure_table", counting)
    return builds


@pytest.mark.parametrize("alpha", [1, -1])
def test_check_all_builds_each_table_once(monkeypatch, capsys, alpha):
    from arcalg import arc_algebra
    builds = _count_table_builds(monkeypatch, arc_algebra)
    code, out, _ = run(capsys, "check", "--n", "4", "--k", "2", "--alpha", str(alpha))
    assert code == 0
    assert out.count(": PASS") + out.count(": FAIL") == 4
    shape = Shape(4, 2)
    assert builds == {(shape, alpha): 1}


def test_run_checks_builds_each_table_once_per_shape(monkeypatch, capsys):
    import importlib.util
    spec = importlib.util.spec_from_file_location("run_checks", ROOT / "scripts" / "run_checks.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    from arcalg import arc_algebra
    builds = _count_table_builds(monkeypatch, arc_algebra)
    monkeypatch.setattr(sys, "argv", ["run_checks.py", "--max-n", "3"])
    assert script.main() == 0
    assert capsys.readouterr().out.count(": PASS") == 2 * 8
    assert builds == {(Shape(n, k), alpha): 1 for n, k in ((2, 1), (3, 1)) for alpha in (1, -1)}
