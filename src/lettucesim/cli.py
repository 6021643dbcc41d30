"""Command-line entry point.

Subcommands: simulate, verify-monotone, sweep, fit, report,
generate-data. Every command is driven by a config file plus overrides,
writes CSV/JSON artifacts, and is fully reproducible from the config
and seed. Exit codes: 0 success, 1 runtime failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, apply_overrides, load_config, parse_config, with_seed
from .field import (
    _check_perturbation_frac,
    export_ledger_csv,
    export_params_csv,
    export_trajectory_csv,
    sample_params,
    simulate_field,
    write_table,
)
from .fitting import (
    DEFAULT_FIXED,
    BiomassTimeseries,
    FitResult,
    FitSpec,
    fit,
    generate_synthetic,
    read_timeseries_csv,
    write_fit_results_csv,
    write_timeseries_csv,
)
from .metrics import ScenarioSummary, compare, dose_response_sweep, summarize
from .model import NOMINAL_PARAMS, PARAM_NAMES, check_cooperativity, jacobian_state

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _positive(kind, zero_ok=False):
    """An argparse type: a finite `kind` (int or float) above 0, or at 0 too when `zero_ok`."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not (value > 0 or zero_ok and value == 0) or value == math.inf:
            raise argparse.ArgumentTypeError(
                f"must be {'nonnegative' if zero_ok else 'positive'} and finite, got {text}"
            )
        return value

    return parse


def _perturbation_frac(text: str) -> float:
    """`--perturbation-frac`: a float in [0, 0.5), the rule of a config's field.perturbation_frac."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        _check_perturbation_frac(value)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _observation_count(text: str):
    """`--n-obs`: a count N, or a range LO:HI each series draws its count from; 3 <= LO <= HI."""
    try:
        bounds = [int(part) for part in text.split(":", 1)]
    except ValueError:
        bounds = []
    if not bounds or bounds[0] < 3 or bounds[-1] < bounds[0]:
        raise argparse.ArgumentTypeError(f"expected N or LO:HI with 3 <= LO <= HI, got {text!r}")
    return bounds[0] if len(bounds) == 1 else tuple(bounds)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lettucesim",
        description="Simulate and analyze variable-rate nitrogen control of a lettuce field.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--config",
            required=True,
            help="scenario config path, or builtin:<name> for a shipped scenario",
        )
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default=None, help="directory for output files")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )

    p = sub.add_parser("simulate", help="run one scenario and write trajectory + summary")
    add_common(p)
    p.add_argument("--threads", type=_positive(int), default=None,
                   help="format trajectory.csv in up to this many worker processes, one plant per task "
                        "(default: every usable CPU), capped at the plant count and the usable CPUs; "
                        "1 formats in this process; outputs are byte-identical for any value")

    def add_sweep_grid(p):
        p.add_argument("--param-sets", type=_positive(int), default=10, help="perturbed parameter sets for the sweep")
        p.add_argument("--points", type=_positive(int), default=20, help="dose grid size for the sweep")

    p = sub.add_parser("verify-monotone", help="check cooperativity and dose-response monotonicity")
    add_common(p)
    p.add_argument("--samples", type=_positive(int), default=1000, help="number of sampled states")
    add_sweep_grid(p)

    p = sub.add_parser("sweep", help="dose-response sweep: final biomass vs constant dose")
    add_common(p)
    add_sweep_grid(p)
    p.add_argument("--u-max", type=_positive(float), default=0.15)
    p.add_argument("--day", type=float, default=None, help="harvest day (default: season length)")

    p = sub.add_parser("fit", help="batch-fit every series in a CSV dataset")
    p.add_argument("--data", required=True, help="observations CSV (plant_id, day, mass_g, kind)")
    p.add_argument("--config", default=None,
                   help="optional config supplying guess/env assumptions (default: all defaults)")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p.add_argument("--threads", type=_positive(int), default=1,
                   help="fit series in up to this many worker processes, capped at the series count "
                        "and the usable CPUs; outputs are byte-identical for any value")
    p.add_argument("--free", default=",".join(name for name in PARAM_NAMES if name not in DEFAULT_FIXED),
                   help="comma-separated parameters to fit; the rest stay fixed at the guess")

    p = sub.add_parser("report", help="merge scenario summaries into one comparison table")
    p.add_argument("summaries", nargs="+", help="summary.json files; the first is the baseline")
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("generate-data", help="write a synthetic observation dataset CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_positive(int), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-frac", type=_positive(float, zero_ok=True), default=0.0)
    p.add_argument("--perturbation-frac", type=_perturbation_frac, default=0.05)
    p.add_argument("--n-obs", type=_observation_count, default=(3, 12),
                   help="observations per series: N or LO:HI, with 3 <= LO <= HI (default 3:12)")
    p.add_argument("--span", type=_positive(float), default=50.0)
    p.add_argument("--spacing", choices=["even", "random"], default="random")
    return parser


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config, args.overrides)
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    return cfg


def _out_dir(args, cfg: ScenarioConfig = None) -> Path:
    """The output directory, created. Commands ask for it once their results are in, so a failed run leaves none."""
    out = args.out_dir if args.out_dir is not None else (cfg.out_dir if cfg else ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_summary_files(summary: ScenarioSummary, out: Path) -> None:
    (out / "summary.json").write_text(summary.to_json() + "\n")
    write_table(
        out / "summary.csv",
        ["name", "n_plants", "mean", "variance", "threshold", "fraction_above_threshold",
         "total_nitrogen", "min", "q1", "median", "q3", "max"],
        [[summary.name, summary.n_plants, summary.mean, summary.variance, summary.threshold,
          summary.fraction_above_threshold, summary.total_nitrogen, *summary.five_number]],
    )


# RK4's stability interval on the negative real axis is about [-2.785, 0].
RK4_REAL_AXIS_BOUND = 2.785


def _spectral_radius_3x3(m) -> float:
    """Largest eigenvalue modulus of a real 3x3 matrix, from its characteristic cubic.

    Closed form (Cardano) instead of `np.linalg.eigvals`, whose LAPACK
    call alone adds ~0.9 MB to the peak RSS of every command that checks
    its step. It solves the cubic of A / s, s being the largest |entry|,
    since rho(A) = s * rho(A / s): no power of an entry can overflow, so
    every finite matrix gives a finite radius.
    """
    entries = m.ravel().tolist()
    scale = max(map(abs, entries))
    if scale == 0.0:
        return 0.0
    a, b, c, d, e, f, g, h, i = (x / scale for x in entries)
    trace = a + e + i
    minors = a * e - b * d + a * i - c * g + e * i - f * h
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # lambda = t + trace/3 turns the characteristic cubic into t^3 + p t + q = 0
    p = minors - trace * trace / 3.0
    q = -2.0 * trace**3 / 27.0 + trace * minors / 3.0 - det
    root = complex((q / 2.0) ** 2 + (p / 3.0) ** 3) ** 0.5
    # the larger of -q/2 +- root, so that w is zero only when p = q = 0
    w = max(-q / 2.0 + root, -q / 2.0 - root, key=abs) ** (1.0 / 3.0)
    if w == 0.0:
        return scale * abs(trace / 3.0)  # p = q = 0: a triple eigenvalue
    cube_roots_of_unity = (1.0, complex(-0.5, 3.0**0.5 / 2.0), complex(-0.5, -(3.0**0.5) / 2.0))
    return scale * max(abs(w * k - p / (3.0 * w * k) + trace / 3.0) for k in cube_roots_of_unity)


def _warn_if_unstable_step(params, s0, u, env, dt) -> None:
    """Print a stderr warning when dt times the fastest linear rate at s0 leaves RK4's stable range.

    The rate is the largest eigenvalue modulus of the state Jacobian at
    the initial state `s0`, the dose `u` and the day-0 environment of
    `env`, under `params`. Nothing is ever rejected, not even when
    extreme parameters overflow the Jacobian or underflow one of its
    divisors to zero: the warning then says that the rate could not be
    evaluated.
    """
    try:
        jac = jacobian_state(s0, u, env.value_at(0.0), params)
    except (OverflowError, ZeroDivisionError):  # Python-float arithmetic at an extreme parameter
        fastest = math.inf
    else:
        fastest = _spectral_radius_3x3(jac)
    if not math.isfinite(fastest):
        print(f"warning: the fastest rate at the initial state could not be evaluated; dt={dt!r} is unchecked",
              file=sys.stderr)
    elif dt * fastest > RK4_REAL_AXIS_BOUND:
        print(
            f"warning: dt={dt!r} times the fastest rate at the initial state ({fastest:.3g}/day) "
            f"is {dt * fastest:.3g}, beyond RK4's stability bound {RK4_REAL_AXIS_BOUND}; "
            "results may be unstable",
            file=sys.stderr,
        )


def _check_field_step(cfg: ScenarioConfig) -> None:
    """`_warn_if_unstable_step` for the field of a scenario config."""
    fc = cfg.field
    _warn_if_unstable_step(fc.nominal_params, fc.s0, fc.u_bar, fc.env, fc.dt)


def cmd_simulate(args) -> int:
    cfg = _load(args)
    _check_field_step(cfg)
    traj = simulate_field(cfg.field, cfg.policy, cfg.schedule)
    summary = summarize(traj, threshold=cfg.threshold_g, name=cfg.name)
    out = _out_dir(args, cfg)
    cpus = _usable_cpus()
    workers = min(args.threads or cpus, cfg.field.n_plants, cpus)
    export_trajectory_csv(traj, out / "trajectory.csv", workers=workers)
    export_ledger_csv(traj, out / "ledger.csv")
    export_params_csv(traj, out / "params.csv")
    _write_summary_files(summary, out)
    print(
        f"{cfg.name}: n={summary.n_plants} mean={summary.mean:.3f} g "
        f"var={summary.variance:.3f} g^2 threshold={summary.threshold:.3f} g "
        f"above={summary.fraction_above_threshold:.2%} nitrogen={summary.total_nitrogen:.3f} g"
    )
    print(f"wrote trajectory.csv, ledger.csv, params.csv, summary.json, summary.csv to {out}")
    return EXIT_OK


def _perturbed_sets(cfg: ScenarioConfig, count: int):
    return [
        sample_params(cfg.field.nominal_params, cfg.field.perturbation_frac, cfg.field.seed, i)
        for i in range(count)
    ]


def cmd_verify_monotone(args) -> int:
    cfg = _load(args)
    _check_field_step(cfg)
    env = cfg.field.env.value_at(0.0)
    report = check_cooperativity(
        cfg.field.nominal_params, env, sample_count=args.samples, seed=cfg.field.seed
    )
    print(f"cooperativity: {report.sample_count} sampled states, seed {report.seed}")
    print(f"  min off-diagonal Jacobian entry: {report.min_offdiagonal:.6g}")
    print(f"  min input-gradient entry:        {report.min_input_gradient:.6g}")
    print(f"  min flux value:                  {report.min_flux:.6g}")
    print(f"  violations: {report.violation_count}")
    for kind, state, u, value in report.violations[:20]:
        print(f"    {kind}: state={state} u={u} value={value:.6g}")

    grid = np.linspace(0.0, 2.0 * cfg.field.u_bar, args.points)
    table = dose_response_sweep(
        _perturbed_sets(cfg, args.param_sets),
        grid,
        day=cfg.field.season_days,
        env=cfg.field.env,
        s0=cfg.field.s0,
        dt=cfg.field.dt,
    )
    monotone = table.monotone_rows()
    print(f"dose-response: {int(monotone.sum())}/{len(monotone)} parameter sets monotone")
    for i, ok in enumerate(monotone):
        if not ok:
            print(f"    parameter set {i} is NOT monotone")

    ok = report.passed and bool(monotone.all())
    print("verify-monotone:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_RUNTIME


def cmd_sweep(args) -> int:
    cfg = _load(args)
    _check_field_step(cfg)
    grid = np.linspace(0.0, args.u_max, args.points)
    day = args.day if args.day is not None else cfg.field.season_days
    table = dose_response_sweep(
        _perturbed_sets(cfg, args.param_sets),
        grid,
        day=day,
        env=cfg.field.env,
        s0=cfg.field.s0,
        dt=cfg.field.dt,
    )
    path = _out_dir(args, cfg) / "dose_response.csv"
    write_table(path, ["param_set", *table.u_grid], ((i, *row) for i, row in enumerate(table.final_b)))
    monotone = table.monotone_rows()
    print(f"wrote {path}; {int(monotone.sum())}/{len(monotone)} rows monotone")
    return EXIT_OK


def _fit_one(spec: FitSpec, series: BiomassTimeseries) -> FitResult | str:
    """Fit one series; an exception becomes the message of its error row."""
    try:
        return fit(spec, series)
    except Exception as exc:  # record and keep going
        return f"{type(exc).__name__}: {exc}"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_fit(args) -> int:
    try:
        dataset = read_timeseries_csv(args.data)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load dataset {args.data}: {exc}") from exc
    free = tuple(name.strip() for name in args.free.split(",") if name.strip())
    unknown = set(free) - set(PARAM_NAMES)
    if unknown:
        raise ConfigError(f"unknown parameters in --free: {sorted(unknown)}")
    fixed = frozenset(set(PARAM_NAMES) - set(free))
    if args.config is not None:
        cfg = load_config(args.config, args.overrides)
    else:
        cfg = parse_config(apply_overrides("", args.overrides))
    spec = FitSpec(
        guess=cfg.field.nominal_params,
        fixed=fixed,
        env=cfg.field.env,
        u=cfg.field.u_bar,
        s0=cfg.field.s0,
    )
    _warn_if_unstable_step(spec.guess, spec.s0, spec.u, spec.env, spec.dt)

    # Each fit is a pure-Python RK4 loop that holds the interpreter lock, so
    # only processes run fits in parallel. A fit's numbers do not depend on
    # the process it ran in. The pool gets the longest series first (by last
    # observation day; ties in dataset order), so a long series does not
    # start last while the other workers idle; results go back to dataset
    # order.
    run_one = partial(_fit_one, spec)
    workers = min(args.threads, len(dataset), _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so importing the CLI stays light

        import scipy.optimize  # noqa: F401  imported before the pool forks, so no worker imports it again

        order = sorted(range(len(dataset)), key=lambda i: -dataset[i].times[-1])
        results = [None] * len(dataset)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, result in zip(order, pool.map(run_one, [dataset[i] for i in order])):
                results[i] = result
    else:
        results = [run_one(series) for series in dataset]

    out = _out_dir(args)
    rows = [(series.plant_id, result) for series, result in zip(dataset, results)]
    write_fit_results_csv(out / "fit_results.csv", rows)

    nrmses = [r.nrmse for r in results if not isinstance(r, str)]
    failures = len(results) - len(nrmses)
    if nrmses:
        counts, edges = np.histogram(nrmses, bins=20, range=(0.0, max(max(nrmses), 1e-9)))
        write_table(out / "nrmse_hist.csv", ["bin_left", "bin_right", "count"], zip(edges, edges[1:], counts))
        print(
            f"fit {len(nrmses)}/{len(results)} series (failures: {failures}); "
            f"median NRMSE {float(np.median(nrmses)):.4f}"
        )
    else:
        print(f"all {len(results)} fits failed", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote fit_results.csv, nrmse_hist.csv to {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    summaries = []
    for path in args.summaries:
        try:
            summaries.append(ScenarioSummary.from_json(Path(path).read_text()))
        except OSError as exc:
            raise ConfigError(f"cannot read summary {path}: {exc}") from exc
    base = summaries[0]
    for s in summaries[1:]:
        if s.n_plants != base.n_plants:
            print(
                f"warning: {s.name} has {s.n_plants} plants but baseline {base.name} has {base.n_plants}",
                file=sys.stderr,
            )

    header = f"{'scenario':<24}{'mean':>9}{'variance':>10}{'above':>8}{'nitrogen':>10}{'var ratio':>10}{'d_above':>9}{'N ratio':>9}"
    print(header)
    rows = []
    for s in summaries:
        rep = compare(base, s)
        frac = float((np.asarray(s.final_outputs) >= base.threshold).mean())
        rows.append((s.name, s.n_plants, s.mean, s.variance, frac, s.total_nitrogen,
                     rep.variance_ratio, rep.fraction_delta, rep.nitrogen_ratio))
        print(
            f"{s.name:<24}{s.mean:>9.2f}{s.variance:>10.2f}{frac:>8.2%}{s.total_nitrogen:>10.2f}"
            f"{rep.variance_ratio:>10.3f}{rep.fraction_delta:>+9.2%}{rep.nitrogen_ratio:>9.3f}"
        )
    print(f"baseline threshold: {base.threshold:.3f} g ({base.name})")

    if args.out_dir is not None:
        out = _out_dir(args)
        write_table(
            out / "comparison.csv",
            ["scenario", "n_plants", "mean", "variance", "fraction_above_baseline_threshold",
             "total_nitrogen", "variance_ratio", "fraction_delta", "nitrogen_ratio"],
            rows,
        )
        # shared-bin histograms over the pooled output range, for paired plots
        pooled = np.concatenate([np.asarray(s.final_outputs) for s in summaries])
        edges = np.histogram_bin_edges(pooled, bins=20)
        hist_rows = []
        for s in summaries:
            counts, _ = np.histogram(np.asarray(s.final_outputs), bins=edges)
            hist_rows += [(s.name, *bin_row) for bin_row in zip(edges, edges[1:], counts)]
        write_table(out / "histograms.csv", ["scenario", "bin_left", "bin_right", "count"], hist_rows)
        print(f"wrote comparison.csv, histograms.csv to {out}")
    return EXIT_OK


def cmd_generate_data(args) -> int:
    dataset = generate_synthetic(
        args.count,
        NOMINAL_PARAMS,
        args.perturbation_frac,
        args.seed,
        n_obs=args.n_obs,
        t_span=args.span,
        noise_frac=args.noise_frac,
        spacing=args.spacing,
    )
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    write_timeseries_csv(out, dataset)
    print(f"wrote {sum(len(s.times) for s in dataset)} observations for {len(dataset)} series to {out}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify-monotone": cmd_verify_monotone,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "report": cmd_report,
    "generate-data": cmd_generate_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
