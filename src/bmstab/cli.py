"""Command-line surface: scenario generation, checks, sweeps, and plots.

Exit codes: 0 success, 1 property violation detected by a check subcommand,
2 usage or input error.  Sweep rows run one after another in spec order, so
reruns write byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .convexity import GridFunction, concavity_fit, convex_hull
from .minkowski import deficit, kemperman_stability, parse_iset, write_iset
from .scenarios import FAMILIES, ScenarioSpec, generate_scenario
from .stability import StabilityReport, check_stability, cos_pipeline, constants
from .symmetry import natural, schwarz, steiner
from .transport import monotone_rearrangement, slice_density, transport_ratio_integral
from .vset import parse_vset, write_vset

__all__ = ["main"]


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational {text!r}") from None


def _emit(args, text: str):
    if getattr(args, "out", None):
        _write(args.out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args) -> int:
    spec = ScenarioSpec(
        family=args.family, n=args.n, denom=args.denom,
        eps=_fraction(args.eps), seed=args.seed, L=args.L, bracket=args.bracket,
    )
    A, B = generate_scenario(spec)
    if spec.family == "interval-unions":
        _write(f"{args.out}.A.iset", write_iset(A))
        _write(f"{args.out}.B.iset", write_iset(B))
    else:
        _write(f"{args.out}.A.vset", write_vset(A))
        _write(f"{args.out}.B.vset", write_vset(B))
    return 0


def _cmd_deficit(args) -> int:
    A = parse_vset(_read(args.in_a))
    B = parse_vset(_read(args.in_b))
    rec = deficit(A, B, _fraction(args.t))
    header = "t,tau,volA,volB,volS,delta_norm,delta_raw,delta_raw_err"
    row = (f"{rec.t},{rec.tau},{float(rec.volA):.12g},{float(rec.volB):.12g},"
           f"{float(rec.volS):.12g},{float(rec.delta_norm):.12g},"
           f"{rec.delta_raw:.12g},{rec.delta_raw_err:.3g}")
    _emit(args, header + "\n" + row + "\n")
    return 0


def _cmd_symmetrize(args) -> int:
    E = parse_vset(_read(args.in_path))
    op = {"steiner": steiner, "schwarz": schwarz, "natural": natural}[args.kind]
    body = op(E)
    chunks = []
    if body.exact is not None:
        chunks.append("exact\n" + write_vset(body.exact))
    else:
        inner, outer = body.bracket
        chunks.append("inner\n" + write_vset(inner))
        chunks.append("outer\n" + write_vset(outer))
    _emit(args, "".join(chunks))
    return 0


def _cmd_transport(args) -> int:
    A = parse_vset(_read(args.in_a))
    B = parse_vset(_read(args.in_b))
    rho_A, rho_B = slice_density(A), slice_density(B)
    T = monotone_rearrangement(rho_A, rho_B)
    lines = ["piece_lo,piece_hi,value"]
    for s0, s1, u0, u1, va, vb in T.pieces:
        lines.append(f"{float(s0):.12g},{float(s1):.12g},{float(va / vb):.12g}")
    ratio = transport_ratio_integral(T)
    lines.append(f"# ratio_integral,{float(ratio):.12g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_concavity_fit(args) -> int:
    rows = [ln.split() for ln in _read(args.in_path).splitlines() if ln.strip()]
    if not rows or any(len(r) < 2 for r in rows):
        raise UsageError("grid csv needs columns: y_1 .. y_{n-1} value")
    k = len(rows[0]) - 1
    if any(len(r) != k + 1 for r in rows):
        raise UsageError(f"every grid row needs {k + 1} columns, as the first row has")
    if k not in (1, 2):
        raise UsageError("base dimension must be 1 or 2")
    pts = tuple(tuple(int(x) for x in r[:k]) for r in rows)
    vals = tuple(float(r[k]) for r in rows)
    if args.denom < 1:
        raise UsageError("--denom must be a positive integer")
    f = GridFunction(k, Fraction(1, args.denom), pts, vals)
    fit = concavity_fit(f, args.sigma, args.varsigma, _fraction(args.tau))
    d = fit.diagnostics
    text = "\n".join([
        f"sigma={fit.sigma}",
        f"varsigma={fit.varsigma}",
        f"tau={fit.tau}",
        f"beta_internal={fit.beta_internal:.12g}",
        f"beta_target={fit.beta_target:.12g}",
        f"gamma={fit.gamma:.12g}",
        f"level_h={fit.level_h:.12g}",
        f"l1_error={fit.l1_error:.12g}",
        f"contact_density={d['contact_density']:.12g}",
        f"level_excess_in_H={d['level_excess_in_H']:.12g}",
        f"level_mass_out_H={d['level_mass_out_H']:.12g}",
        f"four_point_res4={d['four_point_res4']:.12g}",
        f"range_ok={d['range_ok']}",
    ]) + "\n"
    _emit(args, text)
    return 0


def _cmd_kemperman(args) -> int:
    A = parse_iset(_read(args.in_a))
    B = parse_iset(_read(args.in_b))
    v = kemperman_stability(A, B)
    text = "\n".join([
        f"applicable={v['applicable']}",
        f"delta={float(v['delta']):.12g}",
        f"I=[{float(v['I'][0]):.12g},{float(v['I'][1]):.12g}]",
        f"J=[{float(v['J'][0]):.12g},{float(v['J'][1]):.12g}]",
        f"excessA={float(v['excessA']):.12g}",
        f"excessB={float(v['excessB']):.12g}",
        f"pass={v['pass']}",
    ]) + "\n"
    _emit(args, text)
    return 0 if (not v["applicable"] or v["pass"]) else 1


def _cmd_cos_pipeline(args) -> int:
    A = parse_vset(_read(args.in_a))
    B = parse_vset(_read(args.in_b))
    res = cos_pipeline(A, B, convex_hull(A), convex_hull(B),
                       _fraction(args.t), _fraction(args.tau))
    text = "\n".join([
        f"zeta_lo={float(res['zeta_lo']):.12g}",
        f"zeta_hi={float(res['zeta_hi']):.12g}",
        f"inflation_c={res['inflation_c']:.12g}",
        f"inflation_factor={float(res['inflation_factor']):.12g}",
        f"excess_A={float(res['excess_A']):.12g}",
        f"excess_B={float(res['excess_B']):.12g}",
        f"sym_diff_AB={float(res['sym_diff_AB']):.12g}",
    ]) + "\n"
    _emit(args, text)
    return 0


def _cmd_stability_check(args) -> int:
    A = parse_vset(_read(args.in_a))
    B = parse_vset(_read(args.in_b))
    rep = check_stability(A, B, _fraction(args.t), _fraction(args.tau),
                             instance_id=args.id)
    _emit(args, StabilityReport.CSV_HEADER + "\n" + rep.csv_row() + "\n")
    return 0 if rep.verdict in ("pass", "vacuous") else 1


def _cmd_constants(args) -> int:
    table = constants(args.n, _fraction(args.tau))
    _emit(args, table.as_text())
    return 0 if table.bounds_ok else 1


# ---------------------------------------------------------------------------
# sweep


def _parse_config(text: str) -> dict:
    cfg = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise UsageError(f"bad config line: {ln!r}")
        k, v = ln.split("=", 1)
        cfg[k.strip()] = v.strip()
    return cfg


def sweep(config_path: str) -> str:
    """Run one stability check per (eps, seed) pair; returns the CSV text."""
    cfg = _parse_config(_read(config_path))
    try:
        family = cfg["family"]
        n = int(cfg.get("n", "2"))
        m = int(cfg.get("m", "8"))
        t = Fraction(cfg.get("t", "1/2"))
        tau = Fraction(cfg.get("tau", "1/2"))
        eps_list = [Fraction(x) for x in cfg["eps_list"].split(",") if x.strip()]
        seeds = [int(x) for x in cfg["seeds"].split(",") if x.strip()]
    except (KeyError, ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad sweep config: {e}") from None
    if not eps_list or not seeds:
        raise UsageError("bad sweep config: eps_list and seeds need a value each")
    if family not in FAMILIES or family == "interval-unions":
        raise UsageError(f"family {family!r} not sweepable")

    def row(eps, seed):
        spec = ScenarioSpec(family=family, n=n, denom=m, eps=eps, seed=seed)
        A, B = generate_scenario(spec)
        rep = check_stability(A, B, t, tau,
                                 instance_id=f"{family}-e{float(eps):g}-s{seed}")
        return rep.csv_row()

    rows = [row(eps, seed) for eps in sorted(eps_list) for seed in sorted(seeds)]
    return StabilityReport.CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def _cmd_sweep(args) -> int:
    cfg = _parse_config(_read(args.config))
    out = cfg.get("out")
    text = sweep(args.config)
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# plot


def _parse_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if len(lines) < 2:
        raise UsageError("csv needs a header and at least one row")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def fit_loglog_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope and intercept of log10(y) against log10(x)."""
    lx = [math.log10(x) for x in xs]
    ly = [math.log10(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((a - mx) ** 2 for a in lx)
    if sxx == 0:
        raise UsageError("log-log fit needs at least two distinct x values")
    slope = sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx
    return slope, my - slope * mx


def render_loglog_svg(xs, ys, x_label: str, y_label: str) -> str:
    """Self-contained log-log scatter with a least-squares slope annotation."""
    if not xs:
        raise UsageError("nothing to plot")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise UsageError("log axes need positive values")
    slope, intercept = fit_loglog_slope(xs, ys) if len(set(xs)) > 1 else (0.0, 0.0)
    W, H, pad = 480, 360, 50
    lx = [math.log10(x) for x in xs]
    ly = [math.log10(y) for y in ys]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def sx(v):
        return pad + (v - x0) / xr * (W - 2 * pad)

    def sy(v):
        return H - pad - (v - y0) / yr * (H - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect x="{pad}" y="{pad}" width="{W - 2 * pad}" height="{H - 2 * pad}" '
        'fill="none" stroke="black"/>',
        f'<text x="{W / 2:.6g}" y="{H - 12}" text-anchor="middle" '
        f'font-size="12">log10 {x_label}</text>',
        f'<text x="14" y="{H / 2:.6g}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {H / 2:.6g})">log10 {y_label}</text>',
    ]
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{sx(a):.6g}" cy="{sy(b):.6g}" r="3" '
                     'fill="steelblue"/>')
    if len(set(xs)) > 1:
        ya = intercept + slope * x0
        yb = intercept + slope * x1
        parts.append(f'<line x1="{sx(x0):.6g}" y1="{sy(ya):.6g}" '
                     f'x2="{sx(x1):.6g}" y2="{sy(yb):.6g}" stroke="crimson"/>')
        parts.append(f'<text x="{W - pad:.6g}" y="{pad - 8}" text-anchor="end" '
                     f'font-size="12">slope={slope:.4f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_plot(args) -> int:
    header, rows = _parse_csv(_read(args.in_path))
    if args.x not in header or args.y not in header:
        raise UsageError(f"columns {args.x!r}/{args.y!r} not in {header}")
    xi, yi = header.index(args.x), header.index(args.y)
    try:
        xs = [float(r[xi]) for r in rows]
        ys = [float(r[yi]) for r in rows]
    except (ValueError, IndexError):
        raise UsageError("non-numeric plot data") from None
    svg = render_loglog_svg(xs, ys, args.x, args.y)
    _emit(args, svg)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bmstab",
                                description="exact desk-scale geometry checks")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a deterministic scenario pair")
    g.add_argument("--family", choices=FAMILIES, required=True)
    g.add_argument("--n", type=int, default=2)
    g.add_argument("--denom", type=int, default=8)
    g.add_argument("--eps", default="0")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--L", type=int, default=4)
    g.add_argument("--bracket", choices=("inner", "outer"), default="inner")
    g.add_argument("--out", required=True, help="output path prefix")
    g.set_defaults(fn=_cmd_generate)

    d = sub.add_parser("deficit", help="volume deficits of t*A + (1-t)*B")
    d.add_argument("--in-a", dest="in_a", required=True)
    d.add_argument("--in-b", dest="in_b", required=True)
    d.add_argument("--t", default="1/2")
    d.add_argument("--out")
    d.set_defaults(fn=_cmd_deficit)

    s = sub.add_parser("symmetrize", help="steiner/schwarz/natural symmetrization")
    s.add_argument("--in", dest="in_path", required=True)
    s.add_argument("--kind", choices=("steiner", "schwarz", "natural"),
                   required=True)
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_symmetrize)

    tr = sub.add_parser("transport", help="monotone rearrangement between slice densities")
    tr.add_argument("--in-a", dest="in_a", required=True)
    tr.add_argument("--in-b", dest="in_b", required=True)
    tr.add_argument("--out")
    tr.set_defaults(fn=_cmd_transport)

    cf = sub.add_parser("concavity-fit", help="concave fitting of a grid function")
    cf.add_argument("--in", dest="in_path", required=True)
    cf.add_argument("--sigma", type=float, default=0.0)
    cf.add_argument("--varsigma", type=float, default=0.0)
    cf.add_argument("--tau", default="1/2")
    cf.add_argument("--denom", type=int, default=8)
    cf.add_argument("--out")
    cf.set_defaults(fn=_cmd_concavity_fit)

    k = sub.add_parser("kemperman", help="1D interval stability check")
    k.add_argument("--in-a", dest="in_a", required=True)
    k.add_argument("--in-b", dest="in_b", required=True)
    k.add_argument("--out")
    k.set_defaults(fn=_cmd_kemperman)

    cp = sub.add_parser("cos-pipeline", help="containing convex set construction")
    cp.add_argument("--in-a", dest="in_a", required=True)
    cp.add_argument("--in-b", dest="in_b", required=True)
    cp.add_argument("--t", default="1/2")
    cp.add_argument("--tau", default="1/2")
    cp.add_argument("--out")
    cp.set_defaults(fn=_cmd_cos_pipeline)

    sc = sub.add_parser("stability-check", help="full instance verdict")
    sc.add_argument("--in-a", dest="in_a", required=True)
    sc.add_argument("--in-b", dest="in_b", required=True)
    sc.add_argument("--t", default="1/2")
    sc.add_argument("--tau", default="1/2")
    sc.add_argument("--id", default="instance")
    sc.add_argument("--out")
    sc.set_defaults(fn=_cmd_stability_check)

    c = sub.add_parser("constants", help="exponent/threshold table")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--tau", default="1/2")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_constants)

    sw = sub.add_parser("sweep", help="deterministic experiment sweep to CSV")
    sw.add_argument("--config", required=True)
    sw.set_defaults(fn=_cmd_sweep)

    pl = sub.add_parser("plot", help="log-log SVG scatter with fitted slope")
    pl.add_argument("--in", dest="in_path", required=True)
    pl.add_argument("--x", required=True)
    pl.add_argument("--y", required=True)
    pl.add_argument("--out")
    pl.set_defaults(fn=_cmd_plot)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
