import tracemalloc

from bmstab.cli import fit_loglog_slope, main, render_loglog_svg


def run(argv):
    return main(argv)


def test_generate_deficit_round_trip(tmp_path):
    out = tmp_path / "sc"
    assert run(["generate", "--family", "perturbed-square", "--n", "2",
                "--denom", "8", "--eps", "1/8", "--seed", "7",
                "--out", str(out)]) == 0
    assert (tmp_path / "sc.A.vset").exists()
    csv = tmp_path / "d.csv"
    assert run(["deficit", "--in-a", str(tmp_path / "sc.A.vset"),
                "--in-b", str(tmp_path / "sc.B.vset"), "--t", "1/2",
                "--out", str(csv)]) == 0
    header, row = csv.read_text().splitlines()
    assert header.startswith("t,tau,volA")
    assert float(row.split(",")[6]) >= -1e-15  # delta_raw


def test_generate_determinism(tmp_path):
    a1 = tmp_path / "x"
    a2 = tmp_path / "y"
    for out in (a1, a2):
        run(["generate", "--family", "boundary-bites", "--denom", "16",
             "--eps", "1/8", "--seed", "3", "--out", str(out)])
    assert (tmp_path / "x.A.vset").read_bytes() == (tmp_path / "y.A.vset").read_bytes()


def test_deficit_coordinate_outside_int64_is_a_usage_error(tmp_path, capsys):
    good = tmp_path / "good.vset"
    good.write_text("vset 2 1\ncells 1\n0 0\n")
    huge = tmp_path / "huge.vset"
    huge.write_text(f"vset 2 1\ncells 2\n0 0\n{2 ** 70} 0\n")
    assert run(["deficit", "--in-a", str(huge), "--in-b", str(good), "--t", "1/2"]) == 2
    far = tmp_path / "far.vset"
    far.write_text(f"vset 2 1\ncells 1\n{2 ** 62} 0\n")
    assert run(["deficit", "--in-a", str(far), "--in-b", str(far), "--t", "1/3"]) == 2
    assert "int64" in capsys.readouterr().err


def test_generate_past_the_cell_budget_is_a_usage_error(tmp_path, capsys):
    # each would allocate gigabytes: a 64 GiB mask, a 2.55 GiB ball window
    # and a 931 GiB mask; the budget refuses them before any allocation
    for args in (("--family", "homothetic-convex", "--n", "3", "--denom", "4096"),
                 ("--family", "counterexample", "--n", "2", "--denom", "4096", "--L", "64"),
                 ("--family", "boundary-bites", "--n", "2", "--denom", "1000000")):
        tracemalloc.start()
        try:
            assert run(["generate", *args, "--out", str(tmp_path / "x")]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and "budget" in capsys.readouterr().err


def test_symmetrize_and_transport(tmp_path):
    out = tmp_path / "sc"
    run(["generate", "--family", "perturbed-square", "--denom", "4",
         "--eps", "1/4", "--seed", "1", "--out", str(out)])
    sym = tmp_path / "sym.txt"
    assert run(["symmetrize", "--in", str(tmp_path / "sc.A.vset"),
                "--kind", "natural", "--out", str(sym)]) == 0
    assert sym.read_text().startswith("exact\nvset 2 16")
    tr = tmp_path / "t.csv"
    assert run(["transport", "--in-a", str(tmp_path / "sc.A.vset"),
                "--in-b", str(tmp_path / "sc.B.vset"), "--out", str(tr)]) == 0
    assert tr.read_text().startswith("piece_lo,piece_hi,value")


def test_symmetrize_3d_emits_bracket_payloads(tmp_path):
    cube = tmp_path / "c.vset"
    cube.write_text("vset 3 1\ncells 1\n0 0 0\n")
    out = tmp_path / "sym3.txt"
    for kind in ("schwarz", "natural"):
        assert run(["symmetrize", "--in", str(cube), "--kind", kind,
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("inner\nvset 3")
        assert "\nouter\nvset 3" in text


def test_kemperman_exit_codes(tmp_path):
    ok = tmp_path / "ok.iset"
    ok.write_text("iset 1\n0/1 1/1\n")
    assert run(["kemperman", "--in-a", str(ok), "--in-b", str(ok)]) == 0
    missing = run(["kemperman", "--in-a", str(tmp_path / "nope.iset"),
                   "--in-b", str(ok)])
    assert missing == 2
    zero = tmp_path / "zero.iset"
    zero.write_text("iset 1\n1/0 1\n")
    assert run(["kemperman", "--in-a", str(zero), "--in-b", str(ok)]) == 2


def test_constants_subcommand(tmp_path):
    out = tmp_path / "c.txt"
    assert run(["constants", "--n", "3", "--tau", "1/4", "--out", str(out)]) == 0
    text = out.read_text()
    assert "bounds_ok=True" in text


def test_constants_refuses_a_large_n(capsys):
    for n in ("65", "1200"):
        assert run(["constants", "--n", n, "--tau", "1/4"]) == 2
        captured = capsys.readouterr()
        assert "n must lie in" in captured.err and captured.out == ""


def test_stability_check_and_cos(tmp_path):
    out = tmp_path / "sc"
    run(["generate", "--family", "homothetic-convex", "--denom", "4",
         "--out", str(out)])
    assert run(["stability-check", "--in-a", str(tmp_path / "sc.A.vset"),
                "--in-b", str(tmp_path / "sc.B.vset")]) == 0
    assert run(["cos-pipeline", "--in-a", str(tmp_path / "sc.A.vset"),
                "--in-b", str(tmp_path / "sc.B.vset")]) == 0


def test_sweep_reruns_byte_identical(tmp_path):
    cfg = tmp_path / "s.cfg"
    out = tmp_path / "s.csv"
    cfg.write_text("family=boundary-bites\nn=2\nm=16\nt=1/2\ntau=1/2\n"
                   f"eps_list=1/16,1/8,1/4\nseeds=1,2\nout={out}\n")
    assert run(["sweep", "--config", str(cfg)]) == 0
    first = out.read_bytes()
    assert run(["sweep", "--config", str(cfg)]) == 0
    assert out.read_bytes() == first
    rows = first.decode().splitlines()
    assert len(rows) == 1 + 3 * 2  # header + (eps x seed)


def test_sweep_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text in ("family=boundary-bites\n",  # missing eps_list/seeds
                 "family=boundary-bites\neps_list=\nseeds=1\n",
                 "family=boundary-bites\neps_list=1/8\nseeds= ,\n",
                 "family=boundary-bites\nt=1/0\neps_list=1/8\nseeds=1\n",
                 "family=boundary-bites\neps_list=1/0\nseeds=1\n"):
        cfg.write_text(text)
        assert run(["sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""


def _spearman(xs, ys):
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        for rank, i in enumerate(order):
            r[i] = rank
        return r
    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den


def test_sweep_delta_monotone_in_eps(tmp_path):
    # boundary bites: the deficit column tracks the perturbation size
    eps = [f"{k}/4096" for k in range(4, 124, 4)]  # 30 values
    cfg = tmp_path / "mono.cfg"
    out = tmp_path / "mono.csv"
    cfg.write_text("family=boundary-bites\nn=2\nm=64\nt=1/2\ntau=1/2\n"
                   f"eps_list={','.join(eps)}\nseeds=9\nout={out}\n")
    assert run(["sweep", "--config", str(cfg)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    di = header.index("delta_norm")
    deltas = [float(r.split(",")[di]) for r in lines[1:]]
    assert len(deltas) == 30
    assert _spearman(list(range(30)), deltas) > 0.9


def test_concavity_fit_subcommand(tmp_path):
    grid = tmp_path / "g.txt"
    rows = []
    for i in range(-3, 4):
        for j in range(-3, 4):
            rows.append(f"{i} {j} {-(0.2 * i * i + 0.3 * j * j):.6f}")
    grid.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.txt"
    assert run(["concavity-fit", "--in", str(grid), "--sigma", "0",
                "--varsigma", "0", "--tau", "1/2", "--denom", "4",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert "l1_error=" in text and "range_ok=True" in text
    l1 = float([ln for ln in text.splitlines()
                if ln.startswith("l1_error=")][0].split("=")[1])
    assert l1 <= 1e-9


def test_concavity_fit_refuses_denom_below_one(tmp_path, capsys):
    grid = tmp_path / "g.txt"
    grid.write_text("-1 -1.0\n0 0.0\n1 -1.0\n")
    for denom in ("0", "-2"):
        assert run(["concavity-fit", "--in", str(grid), "--denom", denom]) == 2
        captured = capsys.readouterr()
        assert "--denom" in captured.err and captured.out == ""
    assert run(["concavity-fit", "--in", str(grid), "--denom", "1"]) == 0


def test_concavity_fit_refuses_a_bad_sigma_or_varsigma(tmp_path, capsys):
    grid = tmp_path / "g.txt"
    grid.write_text("-1 -1.0\n0 0.0\n1 -1.0\n")
    for flags in (["--sigma", "nan"], ["--sigma", "0.5", "--varsigma", "-0.6"],
                  ["--varsigma", "inf"]):
        assert run(["concavity-fit", "--in", str(grid), *flags]) == 2
        captured = capsys.readouterr()
        assert "sigma must be a finite number >= 0" in captured.err
        assert captured.out == ""
    assert run(["concavity-fit", "--in", str(grid), "--sigma", "0.5",
                "--varsigma", "0.25"]) == 0


def test_concavity_fit_refuses_a_ragged_grid(tmp_path, capsys):
    grid = tmp_path / "g.txt"
    grid.write_text("0 1.0\n1 2 5.0\n2 1.5\n")
    assert run(["concavity-fit", "--in", str(grid)]) == 2
    captured = capsys.readouterr()
    assert "columns" in captured.err and captured.out == ""


def test_plot_slope_annotation(tmp_path):
    csv = tmp_path / "p.csv"
    csv.write_text("x,y\n1,1\n10,100\n")
    out = tmp_path / "p.svg"
    assert run(["plot", "--in", str(csv), "--x", "x", "--y", "y",
                "--out", str(out)]) == 0
    assert "slope=2.0000" in out.read_text()


def test_plot_error_contracts(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("x,y\n")
    assert run(["plot", "--in", str(empty), "--x", "x", "--y", "y"]) == 2
    csv = tmp_path / "p.csv"
    csv.write_text("x,y\n1,1\n2,4\n")
    assert run(["plot", "--in", str(csv), "--x", "nope", "--y", "y"]) == 2


def test_plot_matches_regression_oracle(tmp_path):
    import random
    rng = random.Random(5)
    xs = [10 ** rng.uniform(-3, 0) for _ in range(30)]
    ys = [x ** 1.7 * 10 ** rng.uniform(-0.05, 0.05) for x in xs]
    slope, _ = fit_loglog_slope(xs, ys)
    # independent least-squares recomputation
    import numpy as np
    ref = np.polyfit(np.log10(xs), np.log10(ys), 1)[0]
    assert abs(slope - ref) <= 0.05
    svg = render_loglog_svg(xs, ys, "x", "y")
    assert f"slope={slope:.4f}" in svg


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2


def test_stability_check_refuses_t_or_tau_out_of_range(tmp_path, capsys):
    a, b = tmp_path / "a.vset", tmp_path / "b.vset"
    a.write_text("vset 1 2\ncells 2\n0\n1\n")
    b.write_text("vset 1 2\ncells 2\n0\n2\n")
    io = ["--in-a", str(a), "--in-b", str(b)]
    assert run(["stability-check", *io, "--t", "1/2", "--tau", "1/5"]) in (0, 1)
    for t, tau in (("3123/3125", "1/5"), ("1/10", "1/5"), ("1/2", "3/5"),
                   ("1/2", "0"), ("1/2", "-1/4")):
        capsys.readouterr()
        assert run(["stability-check", *io, f"--t={t}", f"--tau={tau}"]) == 2
        assert "t in [tau, 1-tau]" in capsys.readouterr().err
