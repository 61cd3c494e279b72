"""Command-line entry points.

Subcommands: search, cost, enumerate, eval, export-dot.  Runs are driven
by a JSON config document (validated against a strict schema; unknown
keys are rejected).  `search` writes a manifest alongside its artifacts;
feeding that manifest back in as --config reruns the search with the
exact resolved settings, reproducing arch.json and the CSV logs byte for
byte.  Timing lives only in report.json so the primary artifacts stay
comparable.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, cells
from .autodiff import NumericError
from .cost import (
    ConstraintBox,
    CostScope,
    build_cost_table,
    cost_report_rows,
    exact_cost,
    expected_cost,
)
from .data import Dataset, FormatError, load_cifar10_binary, make_dataset
from .exhaustive import MicroSpace, SpaceTooLarge, saturate_theta, score_archs
from .network import NetworkPlan
from .projection import ProjectionConfig, ProjectionError
from .search import LOG_COLUMNS, SearchAbort, SearchConfig, retrain_eval, run_search

__all__ = ["main", "CONFIG_SCHEMA", "DEFAULT_CONFIG", "resolve_config", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Configuration file failed validation or internal consistency checks."""


_HW = {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2, "maxItems": 2}
_BOUND = {
    "type": "array",
    "items": {"type": ["number", "null"], "minimum": 0},
    "minItems": 2,
    "maxItems": 2,
}
_BETAS = {
    "type": "array",
    "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "minItems": 2,
    "maxItems": 2,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["shapes", "stripes", "blobs", "cifar10"]},
                "n": {"type": "integer", "minimum": 4},
                "n_eval": {"type": "integer", "minimum": 0},
                "image_hw": _HW,
                "seed": {"type": "integer", "minimum": 0},
                "paths": {"type": "array", "items": {"type": "string"}},
                "eval_paths": {"type": "array", "items": {"type": "string"}},
            },
        },
        "plan": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_cells": {"type": "integer", "minimum": 1},
                "init_channels": {"type": "integer", "minimum": 1},
                "n_nodes": {"type": "integer", "minimum": 4},
                "k_levels": {"type": "integer", "minimum": 1},
                "use_connection": {"type": "boolean"},
                "reduction_positions": {
                    "type": ["array", "null"],
                    "items": {"type": "integer", "minimum": 0},
                },
            },
        },
        "constraints": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"lower": _BOUND, "upper": _BOUND},
        },
        "projection": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lambda1": {"type": "number", "minimum": 0},
                "lambda2": {"type": "number", "minimum": 0},
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "max_iters": {"type": "integer", "minimum": 0},
                "lr": {"type": "number", "exclusiveMinimum": 0},
                "betas": _BETAS,
                "feas_tol": {"type": "number", "minimum": 0},
            },
        },
        "search": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epochs": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "e_u": {"type": "integer", "minimum": 1},
                "warm_start_multiplier": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "val_fraction": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "w_lr": {"type": "number", "exclusiveMinimum": 0},
                "w_momentum": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                "w_weight_decay": {"type": "number", "minimum": 0},
                "theta_lr": {"type": "number", "exclusiveMinimum": 0},
                "theta_betas": _BETAS,
                "theta_init_scale": {"type": "number", "minimum": 0},
            },
        },
        "scope": {"enum": ["topk", "fulldag"]},
        "out_dir": {"type": "string"},
        "eval": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epochs": {"type": "integer", "minimum": 1},
                "batch_size": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "lr": {"type": "number", "exclusiveMinimum": 0},
                "cutout": {"type": "boolean"},
            },
        },
        "enumerate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ceiling": {"type": "integer", "minimum": 1},
                "score": {"type": "boolean"},
                "workers": {"type": "integer", "minimum": 1},
            },
        },
    },
}

DEFAULT_CONFIG = {
    "data": {"name": "shapes", "n": 256, "n_eval": 0, "image_hw": [16, 16], "seed": 0},
    "plan": {
        "n_cells": 4,
        "init_channels": 8,
        "n_nodes": 5,
        "k_levels": 3,
        "use_connection": True,
        "reduction_positions": None,
    },
    "constraints": {"lower": [None, None], "upper": [None, None]},
    "projection": {
        "lambda1": 1.0,
        "lambda2": 1.0,
        "gamma": 0.98,
        "max_iters": 500,
        "lr": 3e-4,
        "betas": [0.5, 0.999],
        "feas_tol": 1e-6,
    },
    "search": {
        "epochs": 2,
        "batch_size": 16,
        "e_u": 8,
        "warm_start_multiplier": 2,
        "seed": 0,
        "val_fraction": 0.5,
        "w_lr": 0.025,
        "w_momentum": 0.9,
        "w_weight_decay": 3e-4,
        "theta_lr": 3e-4,
        "theta_betas": [0.5, 0.999],
        "theta_init_scale": 1e-3,
    },
    "scope": "topk",
    "out_dir": "runs/latest",
    "eval": {"epochs": 8, "batch_size": 32, "seed": 0, "lr": 0.025, "cutout": False},
    "enumerate": {"ceiling": 10_000, "score": False, "workers": 1},
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


def resolve_config(doc: dict) -> dict:
    """Validate a user config (or manifest) and fill in defaults.

    A document with a top-level "config" key is treated as a manifest from
    an earlier run and unwrapped first.
    """
    if "config" in doc:
        doc = doc["config"]
        if not isinstance(doc, dict):
            raise ConfigError("manifest 'config' must be an object")
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from None
    return _deep_merge(DEFAULT_CONFIG, doc)


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _load_datasets(cfg: dict) -> tuple[Dataset, Dataset | None]:
    """Build (train, eval) datasets.  Synthetic sets draw n + n_eval images
    from one generator stream and slice, so the two never overlap."""
    d = cfg["data"]
    if d["name"] == "cifar10":
        if not d.get("paths"):
            raise ConfigError("cifar10 needs data.paths")
        train = load_cifar10_binary(d["paths"])
        eval_ds = load_cifar10_binary(d["eval_paths"]) if d.get("eval_paths") else None
        return train, eval_ds
    total = d["n"] + d["n_eval"]
    full = make_dataset(d["name"], total, hw=tuple(d["image_hw"]), seed=d["seed"])
    train = Dataset(full.name, full.images[: d["n"]], full.labels[: d["n"]], full.n_classes, full.seed)
    eval_ds = None
    if d["n_eval"]:
        eval_ds = Dataset(
            full.name, full.images[d["n"] :], full.labels[d["n"] :], full.n_classes, full.seed
        )
    return train, eval_ds


def _build_plan(cfg: dict, ds: Dataset) -> NetworkPlan:
    p = cfg["plan"]
    red = p["reduction_positions"]
    try:
        return NetworkPlan(
            n_cells=p["n_cells"],
            init_channels=p["init_channels"],
            n_classes=ds.n_classes,
            in_channels=ds.channels,
            image_hw=ds.image_hw,
            n_nodes=p["n_nodes"],
            k_levels=p["k_levels"],
            use_connection=p["use_connection"],
            reduction_positions=tuple(red) if red is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(f"plan incompatible with data: {exc}") from None


def _build_box(cfg: dict) -> ConstraintBox:
    c = cfg["constraints"]
    lower = np.array([0.0 if v is None else float(v) for v in c["lower"]])
    upper = np.array([np.inf if v is None else float(v) for v in c["upper"]])
    try:
        return ConstraintBox(lower, upper)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_search_cfg(cfg: dict) -> SearchConfig:
    s = cfg["search"]
    return SearchConfig(**{**s, "theta_betas": tuple(s["theta_betas"])})


def _build_proj_cfg(cfg: dict) -> ProjectionConfig:
    p = cfg["projection"]
    return ProjectionConfig(**{**p, "betas": tuple(p["betas"])})


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_cell(x) -> str:
    """A CSV cell: None empty, a flag 0/1, an int or a string as is, any
    other number as the repr of its float."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int, str)):
        return str(x)
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(x) for x in row] for row in rows)
    path.write_text(buf.getvalue())


# projection_trace.csv column -> the search_log.csv column it copies
_TRACE_COLUMNS = {"round": "round", "lambda1": "lambda1", "lambda2": "lambda2", "iterations": "proj_iters",
                  "feasible": "feasible", "phi_params": "phi_params", "phi_flops": "phi_flops"}
_COST_REPORT_COLUMNS = ["metric", "expected", "exact", "lower_bound", "upper_bound", "violation"]


def _write_cost_report(path: Path, rows: list[dict]) -> None:
    """One row per metric: its name, then each figure."""
    _write_csv(path, _COST_REPORT_COLUMNS, [[r[h] for h in _COST_REPORT_COLUMNS] for r in rows])


def _manifest_config(cfg: dict) -> dict:
    trimmed = {k: v for k, v in cfg.items() if k != "out_dir"}
    return trimmed


def _load_arch(path: str) -> cells.DiscreteArch:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read architecture {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise cells.ArchFormatError(f"{path}: not valid JSON: {exc}") from None
    return cells.DiscreteArch.from_json_dict(doc)


def _cmd_search(args) -> int:
    cfg = resolve_config(_load_config_file(args.config))
    if args.seed is not None:
        cfg["search"]["seed"] = args.seed
    if args.scope is not None:
        cfg["scope"] = args.scope
    out_dir = Path(args.out if args.out is not None else cfg["out_dir"])

    train, _ = _load_datasets(cfg)
    plan = _build_plan(cfg, train)
    box = _build_box(cfg)
    scope = CostScope.parse(cfg["scope"])
    result = run_search(plan, train, box, _build_search_cfg(cfg), _build_proj_cfg(cfg), scope)

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"command": "search", "version": __version__, "config": _manifest_config(cfg)}
    (out_dir / "manifest.json").write_text(_canonical_json(manifest))
    (out_dir / "arch.json").write_text(result.arch.to_canonical_json())
    _write_csv(out_dir / "search_log.csv", LOG_COLUMNS, result.log_rows)
    proj_rows = [[getattr(r, c) for c in _TRACE_COLUMNS.values()] for r in result.log_rows if r.phase == "project"]
    _write_csv(out_dir / "projection_trace.csv", list(_TRACE_COLUMNS), proj_rows)

    exact = exact_cost(result.arch, plan)
    _write_cost_report(out_dir / "cost_report.csv", cost_report_rows(result.phi, exact, box))
    (out_dir / "arch.dot").write_text(cells.export_dot(result.arch, plan.templates()))
    (out_dir / "report.json").write_text(_canonical_json(result.report))
    print(f"search done: {result.report['steps']} steps, feasible={result.feasible}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def _cmd_cost(args) -> int:
    cfg = resolve_config(_load_config_file(args.config))
    if args.scope is not None:
        cfg["scope"] = args.scope
    train, _ = _load_datasets(cfg)
    plan = _build_plan(cfg, train)
    box = _build_box(cfg)
    scope = CostScope.parse(cfg["scope"])
    table = build_cost_table(plan)

    arch = _load_arch(args.arch)
    arch.validate(plan.templates())
    theta = saturate_theta(arch, plan.templates())
    phi = expected_cost(theta, table, scope)
    exact = exact_cost(arch, plan)
    rows = cost_report_rows(phi, exact, box)
    print(",".join(_COST_REPORT_COLUMNS))
    for r in rows:
        print(",".join(str(r[h]) for h in _COST_REPORT_COLUMNS))
    if args.out:
        _write_cost_report(Path(args.out), rows)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    cfg = resolve_config(_load_config_file(args.config))
    train, eval_ds = _load_datasets(cfg)
    plan = _build_plan(cfg, train)
    en = cfg["enumerate"]
    space = MicroSpace(plan, ceiling=en["ceiling"])
    rows = []
    for i, arch in enumerate(space.archs):
        c = exact_cost(arch, plan)
        rows.append([str(i), arch.arch_hash(), repr(float(c[0])), repr(float(c[1]))])
    header = ["index", "arch_hash", "params", "flops"]
    if en["score"]:
        if eval_ds is None:
            raise ConfigError("scoring needs data.n_eval > 0 (or eval_paths)")
        ev = cfg["eval"]
        scores = score_archs(
            space.archs,
            plan,
            train,
            eval_ds,
            epochs=ev["epochs"],
            batch_size=ev["batch_size"],
            seed=ev["seed"],
            workers=en["workers"],
        )
        header.append("accuracy")
        for row, s in zip(rows, scores):
            row.append(repr(float(s)))
    out_path = Path(args.out) if args.out else None
    if out_path:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out_path, header, rows)
        print(f"wrote {len(rows)} architectures to {out_path}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = resolve_config(_load_config_file(args.config))
    if args.seed is not None:
        cfg["eval"]["seed"] = args.seed
    train, eval_ds = _load_datasets(cfg)
    if eval_ds is None:
        raise ConfigError("eval needs data.n_eval > 0 (or eval_paths)")
    plan = _build_plan(cfg, train)
    arch = _load_arch(args.arch)
    ev = cfg["eval"]
    res = retrain_eval(
        arch,
        plan,
        train,
        eval_ds,
        epochs=ev["epochs"],
        batch_size=ev["batch_size"],
        seed=ev["seed"],
        lr=ev["lr"],
        use_cutout=ev["cutout"],
    )
    doc = {
        "accuracy": res.accuracy,
        "loss": res.loss,
        "params": res.params,
        "flops": res.flops,
        "seed": res.seed,
    }
    print(_canonical_json(doc), end="")
    if args.out:
        Path(args.out).write_text(_canonical_json(doc))
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    cfg = resolve_config(_load_config_file(args.config))
    train, _ = _load_datasets(cfg)
    plan = _build_plan(cfg, train)
    arch = _load_arch(args.arch)
    dot = cells.export_dot(arch, plan.templates())
    if args.out:
        Path(args.out).write_text(dot)
        print(f"wrote {args.out}")
    else:
        print(dot, end="")
    return EXIT_OK


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="rcnas", description="Cost-constrained architecture search.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    def add_common(p, arch=False, needs_out=False, seed=None, scope=False):
        p.add_argument("--config", required=True, help="JSON config (or a manifest from a past run)")
        if arch:
            p.add_argument("--arch", required=True, help="architecture JSON file")
        p.add_argument("--out", default=None, help="output " + ("file" if needs_out else "directory"))
        if seed:
            p.add_argument("--seed", type=int, default=None, help=f"override {seed}")
        if scope:
            p.add_argument("--scope", choices=["topk", "fulldag"], default=None, help="cost scope override")

    p_search = sub.add_parser("search", help="run the constrained bilevel search")
    add_common(p_search, seed="search.seed", scope=True)
    p_search.set_defaults(func=_cmd_search)

    p_cost = sub.add_parser("cost", help="cost report for an architecture")
    add_common(p_cost, arch=True, needs_out=True, scope=True)
    p_cost.set_defaults(func=_cmd_cost)

    p_enum = sub.add_parser("enumerate", help="list every architecture in a small space")
    add_common(p_enum, needs_out=True)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_eval = sub.add_parser("eval", help="retrain an architecture and report accuracy")
    add_common(p_eval, arch=True, needs_out=True, seed="eval.seed")
    p_eval.set_defaults(func=_cmd_eval)

    p_dot = sub.add_parser("export-dot", help="render an architecture as Graphviz DOT")
    add_common(p_dot, arch=True, needs_out=True)
    p_dot.set_defaults(func=_cmd_export_dot)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the subcommand's parser, so the usage shown lists its own flags
        commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ConfigError, cells.ArchFormatError, SpaceTooLarge, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SearchAbort, NumericError, ProjectionError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
