"""Command-line front end.

Subcommands: solve (probability distribution + budget), schedule (turn a
distribution into a concrete sequence), simulate (filter along a schedule
and export traces), compare (methods side by side). The JSON scenario
file holds every setting, seeds and topology included; the command line
picks only the files and the output (--config, --out, --kind, compare
--window). Contention runs for schedule.duration periods (L when unset) in
`schedule --kind csma` and for simulate.T in `simulate`. Every artifact is
a deterministic CSV or text file, so a rerun is byte-identical.

Exit codes: 0 success, 2 configuration problem, 3 infeasible scenario,
4 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributed import line_graph, complete_graph, ring_graph, solve_distributed
from .model import (
    DelayChainSpec,
    LtiTarget,
    ScheduleDistribution,
    expand_delay_chain,
    validate_target,
)
from .optimizer import Constraints, InfeasibilityWarning, solve_distribution
from .schedule import (
    ScheduleSequence,
    build_min_consecutive_schedule,
    max_run_length,
    sample_stochastic_schedule,
    simulate_csma_schedule,
    write_sequence,
)
from .simulate import (
    evaluate_schedule,
    monte_carlo_expected_cost,
    sliding_window_schedule,
)


class ConfigError(Exception):
    """The scenario file or command arguments are invalid."""


class InfeasibleError(Exception):
    """The scenario admits no valid probability assignment."""


EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class Scenario:
    targets: list
    constraints: Constraints | None
    adjacency: np.ndarray | None
    inner_tol: float
    L: int
    schedule_seed: int
    duration: int | None
    T: int
    runs: int
    sim_seed: int
    key: str  # fingerprint of what the solution depends on


def _check_keys(d: dict, allowed: set[str], context: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")


def _scalar(section: dict, key: str, context: str, kind: type, default=None, minimum=None):
    """section[key] as kind (float, or int, which takes integral numbers
    only), default when the key is absent; anything else, or a value below
    `minimum`, is a ConfigError."""
    if key not in section:
        return default
    value = section[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{context}.{key}: expected {kind.__name__}, got {value!r}")
    if minimum is not None and not value >= minimum:
        raise ConfigError(f"{context}.{key}: must be at least {minimum}, got {value!r}")
    return kind(value)


def _matrix(value, context: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{context}: not a numeric matrix ({e})") from None
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    return arr


def _parse_target(entry: dict, index: int) -> LtiTarget:
    context = f"targets[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{context}: expected an object")
    if not isinstance(entry.get("label", ""), str):
        raise ConfigError(f"{context}.label: expected a string, got {entry['label']!r}")
    if "chain" in entry:
        _check_keys(entry, {"chain", "label"}, context)
        chain, ctx = entry["chain"], f"{context}.chain"
        _check_keys(chain, {"a", "Q", "R", "d"}, ctx)
        if missing := {"a", "Q", "R"} - set(chain):
            raise ConfigError(f"{ctx}: missing key(s) {', '.join(sorted(missing))}")
        try:
            spec = DelayChainSpec(*(_scalar(chain, k, ctx, float) for k in ("a", "Q", "R")),
                                  d=_scalar(chain, "d", ctx, int, 0))
            return expand_delay_chain(spec, label=entry.get("label", f"chain-{index}"))
        except ValueError as e:
            raise ConfigError(f"{ctx}: {e}") from None
    _check_keys(entry, {"A", "C", "Q", "R", "label", "cost_weights"}, context)
    try:
        target = LtiTarget(
            A=_matrix(entry["A"], f"{context}.A"),
            C=_matrix(entry["C"], f"{context}.C"),
            Q=_matrix(entry["Q"], f"{context}.Q"),
            R=_matrix(entry["R"], f"{context}.R"),
            label=entry.get("label", f"target-{index}"),
            cost_weights=entry.get("cost_weights"),
        )
    except KeyError as e:
        raise ConfigError(f"{context}: missing matrix {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{context}: {e}") from None
    return target


def _parse_topology(value, n: int) -> np.ndarray:
    if isinstance(value, str):
        makers = {"complete": complete_graph, "ring": ring_graph, "line": line_graph}
        if value not in makers:
            raise ConfigError(
                f"topology: unknown name {value!r} (use complete, ring, line, "
                "or explicit neighbor lists)"
            )
        return makers[value](n)
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"topology: need one neighbor list per target ({n})")
    adj = np.zeros((n, n), dtype=bool)
    for i, neighbors in enumerate(value):
        if not isinstance(neighbors, list):
            raise ConfigError(f"topology[{i}]: expected a list of neighbors")
        for j in neighbors:
            if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < n or j == i:
                raise ConfigError(f"topology[{i}]: invalid neighbor {j!r}")
            adj[i, j] = adj[j, i] = True
    return adj


def load_scenario(path: str | Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(
        raw,
        {"targets", "constraints", "topology", "solver", "schedule", "simulate"},
        "config",
    )
    entries = raw.get("targets")
    if not entries or not isinstance(entries, list):
        raise ConfigError("config declares no targets (expected a nonempty list)")
    targets = [_parse_target(e, i) for i, e in enumerate(entries)]
    for i, t in enumerate(targets):
        report = validate_target(t)
        for w in report.warnings:
            print(f"warning: targets[{i}]: {w}", file=sys.stderr)
        if not report.ok:
            raise ConfigError(
                f"targets[{i}] failed validation: " + "; ".join(report.failures)
            )

    constraints = None
    if "constraints" in raw:
        c = raw["constraints"]
        _check_keys(c, {"priorities", "loss"}, "constraints")
        try:
            constraints = Constraints(
                priorities=c.get("priorities"), loss=c.get("loss")
            )
        except ValueError as e:
            raise ConfigError(f"constraints: {e}") from None

    adjacency = None
    if "topology" in raw:
        adjacency = _parse_topology(raw["topology"], len(targets))

    solver = raw.get("solver", {})
    _check_keys(solver, {"inner_tol"}, "solver")
    sched = raw.get("schedule", {})
    _check_keys(sched, {"L", "seed", "duration"}, "schedule")
    sim = raw.get("simulate", {})
    _check_keys(sim, {"T", "runs", "seed"}, "simulate")

    inner_tol = _scalar(solver, "inner_tol", "solver", float, 1e-5)
    # Topology stays out of the key: the distributed solve returns the
    # centralized distribution bit for bit.
    key = zlib.crc32(json.dumps([entries, raw.get("constraints"), inner_tol],
                                sort_keys=True).encode())
    return Scenario(
        targets=targets,
        constraints=constraints,
        adjacency=adjacency,
        inner_tol=inner_tol,
        L=_scalar(sched, "L", "schedule", int, 500, minimum=1),
        schedule_seed=_scalar(sched, "seed", "schedule", int, 1, minimum=0),
        duration=_scalar(sched, "duration", "schedule", int, minimum=1),
        T=_scalar(sim, "T", "simulate", int, 500, minimum=1),
        runs=_scalar(sim, "runs", "simulate", int, 1000, minimum=1),
        sim_seed=_scalar(sim, "seed", "simulate", int, 1, minimum=0),
        key=f"{key:08x}",
    )


def _fmt(x: float) -> str:
    """Shortest exact decimal form; CSV cells round-trip to the same float."""
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _solve(scn: Scenario):
    """Run the solver, echoing any infeasibility diagnosis."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if scn.adjacency is not None:
            report = solve_distributed(
                scn.targets,
                adjacency=scn.adjacency,
                constraints=scn.constraints,
                inner_tol=scn.inner_tol,
            ).solution
        else:
            report = solve_distribution(
                scn.targets,
                constraints=scn.constraints,
                inner_tol=scn.inner_tol,
            )
    # an infeasible solve's diagnosis goes on the `infeasible:` line alone
    diagnosis = [w for w in caught if issubclass(w.category, InfeasibilityWarning)]
    for w in caught:
        if report.feasible or w not in diagnosis:
            print(f"warning: {w.message}", file=sys.stderr)
    if not report.feasible:
        detail = "; ".join(str(w.message) for w in diagnosis) or "scenario is infeasible"
        raise InfeasibleError(detail)
    return report


def _write_solution(path: Path, scn: Scenario, report) -> None:
    rows = [
        [
            i,
            scn.targets[i].label,
            _fmt(pt.q),
            _fmt(pt.cost),
            _fmt(pt.q_critical),
            _fmt(report.gamma_star),
            "true" if report.feasible else "false",
            scn.key,
        ]
        for i, pt in enumerate(report.per_target)
    ]
    _write_csv(
        path,
        ["target", "label", "q_star", "cost", "q_critical", "gamma_star", "feasible", "scenario"],
        rows,
    )


def _load_distribution(out_dir: Path, scn: Scenario):
    """(gamma_star, q) from this scenario's own solution.csv, else from a
    fresh solve, written to solution.csv so that later commands reuse it."""
    path = out_dir / "solution.csv"
    if path.exists():
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) == len(scn.targets) and all(r.get("scenario") == scn.key for r in rows):
            q = np.array([float(r["q_star"]) for r in rows])
            return float(rows[0]["gamma_star"]), ScheduleDistribution(q)
        print(
            f"warning: {path} belongs to another scenario, re-solving and replacing it",
            file=sys.stderr,
        )
    report = _solve(scn)
    _write_solution(path, scn, report)
    return report.gamma_star, report.q_star


def cmd_solve(scn: Scenario, args) -> int:
    report = _solve(scn)
    out = Path(args.out)
    print(f"gamma_star = {report.gamma_star:.6g}  "
          f"(Newton steps: {report.outer_iterations}, "
          f"MARE solves: {report.inner_iterations})")
    print(f"{'target':>6}  {'label':<16} {'q_star':>10} {'cost':>12} {'q_critical':>11}")
    for i, pt in enumerate(report.per_target):
        print(
            f"{i:>6}  {scn.targets[i].label:<16} {pt.q:>10.4f} "
            f"{pt.cost:>12.4f} {pt.q_critical:>11.4f}"
        )
    _write_solution(out / "solution.csv", scn, report)
    print(f"wrote {out / 'solution.csv'}")
    return 0


def _build_sequence(q: ScheduleDistribution, kind: str, length: int, seed: int):
    if kind == "random":
        return sample_stochastic_schedule(q, length, seed)
    if kind == "minconsec":
        return build_min_consecutive_schedule(q, length)
    return simulate_csma_schedule(q, length, seed)


def cmd_schedule(scn: Scenario, args) -> int:
    out = Path(args.out)
    _, q = _load_distribution(out, scn)
    length = scn.duration if (args.kind == "csma" and scn.duration is not None) else scn.L
    seq = _build_sequence(q, args.kind, length, scn.schedule_seed)
    path = out / f"schedule_{args.kind}.txt"
    write_sequence(seq, path)
    counts = seq.counts()
    print(f"kind = {args.kind}, L = {len(seq)}")
    print("counts: " + ", ".join(f"{scn.targets[i].label}={int(c)}" for i, c in enumerate(counts)))
    print(f"max run length = {max_run_length(seq)}")
    print(f"wrote {path}")
    return 0


def _tile_to(seq_steps: np.ndarray, T: int) -> np.ndarray:
    reps = -(-T // seq_steps.size)
    return np.tile(seq_steps, reps)[:T]


def cmd_simulate(scn: Scenario, args) -> int:
    out = Path(args.out)
    _, q = _load_distribution(out, scn)
    if args.kind == "random":
        mc = monte_carlo_expected_cost(scn.targets, q, scn.T, scn.runs, scn.sim_seed)
        series = mc.mean_trace_series
        exp = mc.expected
        print(f"stochastic schedule, T = {scn.T}, runs = {scn.runs}")
        for i, t in enumerate(scn.targets):
            print(
                f"  {t.label}: expected trace {exp.per_target_avg_trace[i]:.4f} "
                f"± {exp.half_width[i]:.4f}"
            )
        print(f"max expected cost = {exp.max_over_targets:.4f}")
    else:
        length = scn.T if args.kind == "csma" else scn.L
        base = _build_sequence(q, args.kind, length, scn.schedule_seed)
        steps = _tile_to(base.steps, scn.T)
        seq = ScheduleSequence(steps=steps, n_targets=len(q))
        report = evaluate_schedule(scn.targets, seq)
        series = report.trace_series
        print(f"{args.kind} schedule, T = {scn.T}")
        for i, t in enumerate(scn.targets):
            print(f"  {t.label}: avg trace {report.per_target_avg_trace[i]:.4f}")
        print(f"max cost = {report.max_over_targets:.4f}")
    header = ["step"] + [f"target_{i}_trace" for i in range(len(scn.targets))]
    rows = [[k] + [_fmt(v) for v in series[k]] for k in range(series.shape[0])]
    _write_csv(out / "traces.csv", header, rows)
    print(f"wrote {out / 'traces.csv'}")
    return 0


def cmd_compare(scn: Scenario, args) -> int:
    out = Path(args.out)
    gamma_star, q = _load_distribution(out, scn)
    rows: list[list] = []

    rows.append(["bound", _fmt(gamma_star), "", "optimized worst-case fixed-point trace"])

    mc = monte_carlo_expected_cost(scn.targets, q, scn.T, scn.runs, scn.sim_seed)
    hw = float(mc.expected.half_width[int(np.argmax(mc.expected.per_target_avg_trace))])
    rows.append(["stochastic", _fmt(mc.expected.max_over_targets), _fmt(hw),
                 f"{scn.runs} runs of T={scn.T}"])

    try:
        base = build_min_consecutive_schedule(q, scn.L)
        tiled = ScheduleSequence(_tile_to(base.steps, scn.T), len(q))
        det = evaluate_schedule(scn.targets, tiled)
        rows.append(["minconsec", _fmt(det.max_over_targets), "",
                     f"L={scn.L} tiled to T={scn.T}"])
    except ValueError as e:
        rows.append(["minconsec", "", "", f"failed: {e}"])

    if args.window is not None:
        try:
            _, sw = sliding_window_schedule(scn.targets, args.window, scn.T)
            rows.append(["sliding_window", _fmt(sw.max_over_targets), "",
                         f"window={args.window}, T={scn.T}"])
        except ValueError as e:
            rows.append(["sliding_window", "", "", f"failed: {e}"])

    print(f"{'method':<16} {'max cost':>12} {'half width':>11}  note")
    for method, cost, hw_s, note in rows:
        cost_s = f"{float(cost):>12.4f}" if cost else f"{'-':>12}"
        hw_disp = f"{float(hw_s):>11.4f}" if hw_s else f"{'-':>11}"
        print(f"{method:<16} {cost_s} {hw_disp}  {note}")
    _write_csv(out / "comparison.csv", ["method", "max_cost", "half_width", "note"], rows)
    print(f"wrote {out / 'comparison.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensorsched",
        description="Observation scheduling for independent linear targets "
        "sharing one sensor",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", cmd_solve),
        ("schedule", cmd_schedule),
        ("simulate", cmd_simulate),
        ("compare", cmd_compare),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        if name in ("schedule", "simulate"):
            p.add_argument("--kind", choices=("random", "minconsec", "csma"),
                           default="random")
        if name == "compare":
            p.add_argument("--window", type=int, default=None,
                           help="lookahead window for the tree-search baseline")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn = load_scenario(args.config)
        window = getattr(args, "window", None)
        if window is not None and window < 1:
            raise ConfigError(f"--window: must be at least 1, got {window}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.fn(scn, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    # LinAlgError subclasses ValueError, so the numeric branch must come first.
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
