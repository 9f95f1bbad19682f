"""Batch front end: instance generation, solving, auditing, reporting.

Subcommands
  gen     write a random instance file
  solve   run an approximation pipeline on an instance file
  oracle  exact brute-force solve
  bench   seeded experiment batch with oracle-relative ratios and audits
  audit   standalone invariant audits (LP equivalence, power-mean, loads)

Reports are emitted as sorted-key JSON (byte-stable for a given config and
seed) or as a plain text table.  Exit code 0 means every trial succeeded
and every audited bound held.  A library error that ends a command is
printed as ``<Type>: <message>`` on stderr, with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import audits, lpnorm, makespan
from .errors import BadSpec, BudgetExhausted, Infeasible, TypeschedError
from .modes import FullEnum, Guided
from .model import (
    GeneratorSpec,
    Instance,
    generate_instance,
    instance_digest,
    instance_from_json,
    instance_to_json,
)
from .oracle import exact_solve
from .rationals import parse_rational, power, rat, rat_str
from .rounding import forest_dot


@dataclass(frozen=True)
class ExperimentConfig:
    objective: str               # "makespan" | "lp_norm"
    trials: int
    seed: int
    eps_user: object
    p: object = 2
    mode: str = "guided"         # "guided" | "full"
    enum_budget: int = 10**6
    jobs_max: int = 7
    machines_max: int = 4
    num_types: int = 2
    dims_choices: tuple[int, ...] = (1, 2)
    cost_min: int = 1
    cost_max: int = 10

    def __post_init__(self):
        # trial_spec divides by jobs_max - 1, machines_max - 1, num_types and
        # the number of dims choices, a batch without trials checks nothing,
        # and a negative budget would only be reported as exhausted
        for name, value, low in (
            ("trials", self.trials, 1),
            ("enum_budget", self.enum_budget, 0),
            ("jobs_max", self.jobs_max, 2),
            ("machines_max", self.machines_max, 2),
            ("num_types", self.num_types, 1),
            ("len(dims_choices)", len(self.dims_choices), 1),
        ):
            if value < low:
                raise BadSpec(f"{name} must be at least {low}, got {value}")
        # an unknown mode would run full enumeration under its own label
        for name, value, known in (
            ("objective", self.objective, ("makespan", "lp_norm")),
            ("mode", self.mode, ("guided", "full")),
        ):
            if value not in known:
                raise BadSpec(f"{name} must be {known[0]!r} or {known[1]!r}, got {value!r}")
        # calibration would stop the first trial with a bare error, the report
        # renders p for either objective, and every L_p trial needs p > 1
        parsed = {}
        for name in ("eps_user", "p"):
            try:
                parsed[name] = parse_rational(getattr(self, name))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise BadSpec(f"{name} is not a rational: {getattr(self, name)!r}") from None
        if not 0 < parsed["eps_user"] <= 1:
            raise BadSpec(f"eps_user must lie in (0, 1], got {rat_str(parsed['eps_user'])}")
        if self.objective == "lp_norm" and not parsed["p"] > 1:
            raise BadSpec(f"p must be > 1, got {rat_str(parsed['p'])}")

    def trial_spec(self, index: int) -> GeneratorSpec:
        """Deterministic instance shape for one trial (spec + seed fix it)."""
        s = self.seed + index
        n = 2 + s % (self.jobs_max - 1)
        choices = self.dims_choices if self.objective == "makespan" else (1,)
        dims = choices[s % len(choices)]
        m_total = 2 + (s // 2) % (self.machines_max - 1)
        counts = [1] * self.num_types
        for i in range(m_total - self.num_types):
            counts[(s + i) % self.num_types] += 1
        return GeneratorSpec(n, dims, tuple(counts), self.cost_min, self.cost_max)


@dataclass
class Report:
    config: dict
    rows: list[dict] = field(default_factory=list)

    def summary(self) -> dict:
        ratios = [rat(parse_rational(r["ratio"])) for r in self.rows if r.get("ratio")]
        failures = [r for r in self.rows if not r.get("ok")]
        out = {
            "trials": len(self.rows),
            "failures": len(failures),
            "max_ratio": rat_str(max(ratios)) if ratios else None,
            "mean_ratio": rat_str(sum(ratios, rat(0)) / len(ratios)) if ratios else None,
        }
        return out

    @property
    def ok(self) -> bool:
        return all(r.get("ok") for r in self.rows)

    def to_json(self) -> str:
        doc = {"config": self.config, "rows": self.rows, "summary": self.summary()}
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_table(self) -> str:
        header = f"{'trial':>5} {'digest':>18} {'oracle':>10} {'algo':>10} {'ratio':>10} {'ok':>4}  note"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r['trial']:>5} {r['digest']:>18} {r.get('oracle', '-'):>10} "
                f"{r.get('algorithm', '-'):>10} {r.get('ratio', '-'):>10} "
                f"{'yes' if r.get('ok') else 'NO':>4}  {r.get('error', '')}"
            )
        s = self.summary()
        lines.append("-" * len(header))
        lines.append(
            f"trials={s['trials']} failures={s['failures']} "
            f"max_ratio={s['max_ratio']} mean_ratio={s['mean_ratio']}"
        )
        return "\n".join(lines)


# reported name -> RoundingStats field, in report order
_STATS_FIELDS = {
    "lp_solves": "lp_solves",
    "rounding_iterations": "iterations",
    "machine_drops": "case_machine_drop",
    "slot_merges": "case_slot_merge",
    "improper_types": "case_improper",
    "counting_checks": "counting_checks",
    "art_lp_solves": "art_lp_solves",
}


def _stats_row(stats_list) -> dict:
    """The reported rounding counters, summed over a list of RoundingStats."""
    return {
        name: sum(getattr(stats, attr) for stats in stats_list)
        for name, attr in _STATS_FIELDS.items()
    }


def _run_pipeline(inst: Instance, objective: str, eps_user, p, mode):
    """(result, exact objective value, list of RoundingStats, forest) of the
    makespan pipeline, or of the L_p one for any other objective ("lpnorm"
    or "lp_norm"), whose value is the norm's p-th power."""
    if objective == "makespan":
        res = makespan.makespan_ptas(inst, eps_user, mode)
        return res, rat(res.makespan), res.probe_stats, res.forest
    res = lpnorm.lpnorm_ptas(inst, p, eps_user, mode)
    return res, rat(res.objective_pow), [res.run.stats], res.run.forest


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Execute trials; every pipeline invariant stays asserted (always on)."""
    bound = 1 + rat(parse_rational(cfg.eps_user))
    report = Report(
        config={
            "objective": cfg.objective,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "eps_user": rat_str(parse_rational(cfg.eps_user)),
            "p": rat_str(parse_rational(cfg.p)),
            "mode": cfg.mode,
            "enum_budget": cfg.enum_budget,
        }
    )
    for i in range(cfg.trials):
        inst = generate_instance(cfg.trial_spec(i), cfg.seed + i)
        row = {"trial": i, "digest": instance_digest(inst)}
        try:
            opt = exact_solve(inst, cfg.objective, p=cfg.p)
            mode = Guided(opt.witness) if cfg.mode == "guided" else FullEnum(cfg.enum_budget)
            res, algo_val, stats, _ = _run_pipeline(inst, cfg.objective, cfg.eps_user, cfg.p, mode)
            oracle_val = rat(opt.optimum)
            if cfg.objective == "makespan":
                ratio = algo_val / oracle_val
                row["probes"] = res.probes
                within = ratio <= bound
            else:
                # compare the norms, not their p-th powers
                pval = parse_rational(cfg.p)
                ratio = rat(float(algo_val / oracle_val) ** (1 / float(pval)))
                row["cp_gap"] = res.run.cp_gap
                within = algo_val <= power(bound, pval) * oracle_val
            row["oracle"] = rat_str(oracle_val)
            row["algorithm"] = rat_str(algo_val)
            row["ratio"] = rat_str(ratio)
            row.update(_stats_row(stats))
            row["ok"] = bool(within)
            if not within:
                row["error"] = "ratio bound exceeded"
        except TypeschedError as exc:
            row["ok"] = False
            row["error"] = f"{type(exc).__name__}: {exc}"
        report.rows.append(row)
    return report


# ---------------------------------------------------------------------------
# argument parsing


def _rational_arg(text: str):
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _eps_arg(text: str):
    """--eps: a rational in (0, 1], checked before any solve starts."""
    eps = _rational_arg(text)
    if not 0 < eps <= 1:
        raise argparse.ArgumentTypeError(f"eps must lie in (0, 1], got {rat_str(eps)}")
    return eps


def _ints_arg(text: str) -> tuple[int, ...]:
    """--machines, --dims: comma-separated integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _int_at_least(low: int):
    """The type of an integer option that must be >= low, checked before any
    work starts (bench shapes divide by jobs-max - 1, machines-max - 1 and
    types; a bench needs a trial, an audit a sample; a budget is a count)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _p_arg(text: str):
    """--p: a rational norm exponent above 1, as every L_p solver requires."""
    p = _rational_arg(text)
    if not p > 1:
        raise argparse.ArgumentTypeError(f"norm exponent must be > 1, got {rat_str(p)}")
    return p


def _add_common_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="instance JSON file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typesched",
        description="Approximation schemes for scheduling machines of few types",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance file")
    g.add_argument("--jobs", type=int, required=True)
    g.add_argument("--dims", type=int, default=1)
    g.add_argument("--machines", type=_ints_arg, required=True,
                   help="comma-separated counts per type")
    g.add_argument("--cost-min", type=int, default=1)
    g.add_argument("--cost-max", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output path (default: stdout)")

    s = sub.add_parser("solve", help="run an approximation pipeline")
    _add_common_instance_flags(s)
    s.add_argument("--objective", choices=["makespan", "lpnorm"], default="makespan")
    s.add_argument("--eps", type=_eps_arg, default="1/2",
                   help="target accuracy eps_user (rational in (0, 1])")
    s.add_argument("--p", type=_p_arg, default="2", help="norm exponent for lpnorm (> 1)")
    s.add_argument("--mode", choices=["guided", "full"], default="guided")
    s.add_argument("--enum-budget", type=_int_at_least(0), default=10**6)
    s.add_argument("--emit-forest", action="store_true", help="dump the subsumption forest")
    s.add_argument("--format", choices=["json", "table"], default="table")
    s.add_argument("--out", help="output path (default: stdout)")

    o = sub.add_parser("oracle", help="exact brute-force solve")
    _add_common_instance_flags(o)
    o.add_argument("--objective", choices=["makespan", "lpnorm"], default="makespan")
    o.add_argument("--p", type=_p_arg, default="2")

    b = sub.add_parser("bench", help="seeded experiment batch")
    b.add_argument("--objective", choices=["makespan", "lpnorm"], default="makespan")
    b.add_argument("--trials", type=_int_at_least(1), default=20)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--eps", type=_eps_arg, default="1/2")
    b.add_argument("--p", type=_p_arg, default="2")
    b.add_argument("--mode", choices=["guided", "full"], default="guided")
    b.add_argument("--enum-budget", type=_int_at_least(0), default=10**6)
    b.add_argument("--jobs-max", type=_int_at_least(2), default=7)
    b.add_argument("--machines-max", type=_int_at_least(2), default=4)
    b.add_argument("--types", type=_int_at_least(1), default=2)
    b.add_argument("--dims", type=_ints_arg, default="1,2",
                   help="comma-separated dimension choices")
    b.add_argument("--cost-min", type=int, default=1)
    b.add_argument("--cost-max", type=int, default=10)
    b.add_argument("--format", choices=["json", "table"], default="table")
    b.add_argument("--out", help="output path (default: stdout)")

    a = sub.add_parser("audit", help="standalone invariant audits")
    a.add_argument(
        "--suite",
        choices=["lp-equiv", "power-mean", "load-diff", "all"],
        default="all",
    )
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--samples", type=_int_at_least(1), default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_instance(path: str) -> Instance:
    with open(path) as fh:
        return instance_from_json(fh.read())


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(args.jobs, args.dims, args.machines, args.cost_min, args.cost_max)
    _emit(instance_to_json(generate_instance(spec, args.seed)), args.out)
    return 0


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    eps, p, is_makespan = args.eps, args.p, args.objective == "makespan"
    doc: dict = {"objective": args.objective, "eps_user": rat_str(eps), "mode": args.mode}
    try:
        if args.mode == "guided":
            opt = exact_solve(inst, "makespan" if is_makespan else "lp_norm", p=p)
            mode = Guided(opt.witness)
            doc["oracle" if is_makespan else "oracle_pow"] = rat_str(rat(opt.optimum))
        else:
            mode = FullEnum(args.enum_budget)
        res, value, stats, forest = _run_pipeline(inst, args.objective, eps, p, mode)
        if is_makespan:
            doc["makespan"] = rat_str(value)
            doc["accepted_target"] = rat_str(rat(res.accepted_target))
            doc["eps_internal"] = rat_str(rat(res.eps_internal))
            doc["probes"] = res.probes
        else:
            doc["objective_pow"] = rat_str(value)
            doc["cp_objective"] = res.run.cp_objective
            doc["cp_gap"] = res.run.cp_gap
            doc["cp_tolerance"] = res.run.cp_tolerance
            doc["guesses_tried"] = res.guesses_tried
        doc["stats"] = _stats_row(stats)
        if args.mode == "guided":
            ratio = value / rat(opt.optimum)
            if is_makespan:
                doc["ratio"] = rat_str(ratio)
            else:
                doc["norm_ratio"] = float(ratio) ** (1 / float(p))
        doc["schedule"] = [list(mk) for mk in res.schedule.assignment]
    except (Infeasible, BudgetExhausted) as exc:
        doc["error"] = f"{type(exc).__name__}: {exc}"
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
        return 1
    if args.emit_forest:
        doc["forest_dot"] = forest_dot(forest)
    if args.format == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    else:
        lines = [f"{k}: {v}" for k, v in doc.items() if k not in ("schedule", "forest_dot")]
        lines.append(f"schedule: {doc['schedule']}")
        if args.emit_forest:
            lines.append(doc["forest_dot"])
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_oracle(args) -> int:
    inst = _load_instance(args.instance)
    if args.objective == "makespan":
        res = exact_solve(inst)
    else:
        res = exact_solve(inst, "lp_norm", p=args.p)
    doc = {
        "optimum": rat_str(rat(res.optimum)) if not isinstance(res.optimum, float) else res.optimum,
        "explored": res.explored,
        "schedule": [list(mk) for mk in res.witness.assignment],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig(
        objective="makespan" if args.objective == "makespan" else "lp_norm",
        trials=args.trials,
        seed=args.seed,
        eps_user=args.eps,
        p=args.p,
        mode=args.mode,
        enum_budget=args.enum_budget,
        jobs_max=args.jobs_max,
        machines_max=args.machines_max,
        num_types=args.types,
        dims_choices=args.dims,
        cost_min=args.cost_min,
        cost_max=args.cost_max,
    )
    report = run_experiment(cfg)
    _emit(report.to_json() if args.format == "json" else report.to_table(), args.out)
    return 0 if report.ok else 1


def _cmd_audit(args) -> int:
    runs = []
    if args.suite in ("lp-equiv", "all"):
        runs.append(audits.lp_equivalence_audit(args.samples or 100, args.seed))
    if args.suite in ("power-mean", "all"):
        runs.append(audits.power_mean_audit(args.samples or 1000, args.seed))
    if args.suite in ("load-diff", "all"):
        runs.append(audits.load_difference_audit(args.samples or 40, args.seed))
    ok = True
    for res in runs:
        status = "pass" if res.ok else "FAIL"
        print(f"[{status}] {res.name}: {res.samples} samples, {res.failures} failures {res.detail}")
        ok = ok and res.ok
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "bench": _cmd_bench,
        "audit": _cmd_audit,
    }
    try:
        return handlers[args.command](args)
    except (TypeschedError, OSError) as exc:  # OSError: --instance or --out cannot be opened
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
