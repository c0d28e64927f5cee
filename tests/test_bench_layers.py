import importlib.util
import json
import os
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", os.path.join(ROOT, "tools", "bench_layers.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_layers_smoke(tmp_path, capsys):
    tool = _tool()
    out = tmp_path / "layers.json"
    argv = ["--inputs", "boundary-bites-2d-m128", "--reps", "3", "--out", str(out)]
    start = time.perf_counter()
    assert tool.main(argv) == 0
    assert time.perf_counter() - start < 1.0
    assert tool.main(argv) == 0  # a second run appends a second entry
    book = json.loads(out.read_text())
    assert book["schema"] == tool.SCHEMA and len(book["entries"]) == 2
    entry = book["entries"][0]
    assert entry["layer"] == "minkowski.convex_combination" and entry["parent"] is None
    (rec,) = entry["inputs"]
    sizes, cpu = rec["change"]["sizes"], rec["change"]["cpu_s"]
    assert sizes["pairs"] == sizes["runs_a"] * sizes["runs_b"] > 0
    assert 0 < sizes["kept"] <= sizes["pairs"] and sizes["out_runs"] > 0
    assert cpu["samples"] == 3 and 0 <= cpu["q1"] <= cpu["median"] <= cpu["q3"]
    assert "boundary-bites-2d-m128" in capsys.readouterr().out
    # criterion 02's small sets are timed through deficit, and an entry over
    # two layers lists both
    argv = ["--inputs", "criterion02-1d", "boundary-bites-2d-m128", "--reps", "2",
            "--out", str(out)]
    assert tool.main(argv) == 0
    entry = json.loads(out.read_text())["entries"][-1]
    assert entry["layer"] == ["minkowski.deficit", "minkowski.convex_combination"]
    rec = entry["inputs"][0]
    sizes = rec["change"]["sizes"]
    assert rec["layer"] == "minkowski.deficit"
    assert sizes["scenarios"] == tool.DEFICIT_COUNT
    assert 0 < sizes["kept"] == sizes["pairs"] and sizes["runs_a"] >= sizes["scenarios"]
    # stability-sweep's seed-1 rows are timed through hull_distance
    argv = ["--inputs", "stability-sweep-s1", "--reps", "2", "--out", str(out)]
    assert tool.main(argv) == 0
    entry = json.loads(out.read_text())["entries"][-1]
    assert entry["layer"] == "stability.hull_distance"
    (rec,) = entry["inputs"]
    assert rec["change"]["sizes"] == {"rows": 32, "hull_evals": 32, "levels": 0}
    assert rec["change"]["cpu_s"]["samples"] == 2
    assert "stability-sweep-s1" in capsys.readouterr().out
