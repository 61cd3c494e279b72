"""Command-line entry points.

Subcommands: search, cost, enumerate, eval, export-dot.  Runs are driven
by a JSON config document (validated against a strict schema that also
holds every default; unknown keys are rejected).  The --seed and --scope
flags are laid over that document before it is validated.  `search`
writes a manifest alongside its artifacts; feeding that manifest back in
as --config reruns the search with the exact resolved settings,
reproducing arch.json and the CSV logs byte for byte.  Timing lives only
in report.json so the primary artifacts stay comparable.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import inspect
import io
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, cells
from .cost import (
    ConstraintBox,
    CostScope,
    build_cost_table,
    cost_report_rows,
    exact_cost,
    expected_cost,
)
from .data import Dataset, FormatError, load_cifar10_binary, make_dataset
from .exhaustive import MicroSpace, SpaceTooLarge, saturate_theta
from .network import NetworkPlan
from .projection import ProjectionConfig, ProjectionError
from .search import LOG_COLUMNS, SearchAbort, SearchConfig, retrain_eval, run_search
from .settings import settings

__all__ = ["main", "CONFIG_SCHEMA", "DEFAULT_CONFIG", "resolve_config", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Configuration file failed validation or internal consistency checks."""


_HW = {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2, "maxItems": 2, "default": [16, 16]}
_BOUND = {
    "type": "array",
    "items": {"type": ["number", "null"], "minimum": 0},
    "minItems": 2,
    "maxItems": 2,
    "default": [None, None],
}
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number"}


def _section(call) -> dict:
    """The config section of ``call``: per setting, a scalar, the JSON type
    and range of its annotation and its default."""
    params = inspect.signature(call).parameters
    props = {name: {"type": _JSON_TYPES[kind], **bounds, "default": params[name].default}
             for name, (kind, bounds) in settings(call).items()}
    return {"type": "object", "additionalProperties": False, "properties": props}


# Every setting is one property: its type, its range and its default.  The
# search, projection, plan and eval sections are built from the settings of
# the call each configures; the rest are written here.  A section's
# defaults are those of its properties; `paths` and `eval_paths` have none
# and stay absent unless a config sets them.
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["shapes", "stripes", "blobs", "cifar10"], "default": "shapes"},
                "n": {"type": "integer", "minimum": 4, "default": 256},
                "n_eval": {"type": "integer", "minimum": 0, "default": 0},
                "image_hw": _HW,
                "seed": {"type": "integer", "minimum": 0, "default": 0},
                "paths": {"type": "array", "items": {"type": "string"}},
                "eval_paths": {"type": "array", "items": {"type": "string"}},
            },
        },
        "plan": _section(NetworkPlan),
        "constraints": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"lower": _BOUND, "upper": _BOUND},
        },
        "projection": _section(ProjectionConfig),
        "search": _section(SearchConfig),
        "scope": {"enum": ["topk", "fulldag"], "default": "topk"},
        "out_dir": {"type": "string", "default": "runs/latest"},
        "eval": _section(retrain_eval),
        "enumerate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ceiling": {"type": "integer", "minimum": 1, "default": 10_000},
                "score": {"type": "boolean", "default": False},
            },
        },
    },
}


def _defaults(schema: dict) -> dict:
    """A fresh document of the defaults in ``schema``, sections nested."""
    out = {}
    for key, prop in schema["properties"].items():
        if "default" in prop:
            out[key] = copy.deepcopy(prop["default"])
        elif "properties" in prop:
            out[key] = _defaults(prop)
    return out


DEFAULT_CONFIG = _defaults(CONFIG_SCHEMA)


def _deep_merge(base: dict, override: dict) -> dict:
    """``base`` with ``override`` laid over it, objects key by key.  An
    object is not laid over a value of another type: that value stays, for
    the schema to reject."""
    out = dict(base)
    for key, val in override.items():
        if not isinstance(val, dict):
            out[key] = val
        elif isinstance(out.get(key, {}), dict):
            out[key] = _deep_merge(out.get(key, {}), val)
    return out


def _unwrap(doc: dict) -> dict:
    """The config of a manifest (a document with a top-level "config" key)
    from an earlier run, or ``doc`` itself."""
    if "config" not in doc:
        return doc
    if not isinstance(doc["config"], dict):
        raise ConfigError("manifest 'config' must be an object")
    return doc["config"]


def _numbers(val, path: str = ""):
    """(path, value) of every number in a JSON document."""
    if isinstance(val, dict | list):
        for key, sub in val.items() if isinstance(val, dict) else enumerate(val):
            yield from _numbers(sub, f"{path}/{key}".lstrip("/"))
    elif isinstance(val, int | float):
        yield path, val


def resolve_config(doc: dict) -> dict:
    """Validate a user config (or manifest) and fill in defaults.

    A manifest is unwrapped first.  Every schema violation is reported, so
    a manifest holding settings since removed names each.  The defaults are
    built afresh on each call, so the result shares no object with
    DEFAULT_CONFIG.
    """
    doc = _unwrap(doc)
    errors = [f"config invalid at {'/'.join(map(str, exc.absolute_path)) or '<root>'}: {exc.message}"
              for exc in jsonschema.Draft202012Validator(CONFIG_SCHEMA).iter_errors(doc)]
    if errors:
        raise ConfigError("; ".join(errors))
    # JSON allows numbers no float64 holds (NaN, the infinities, integers
    # past its range), and the schema's bounds pass them, but the program
    # reads every number as a finite float or a count
    for path, val in _numbers(doc):
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"config invalid at {path}: {json.dumps(val)} is not a finite number")
        if abs(val) > sys.float_info.max:
            raise ConfigError(f"config invalid at {path}: integer too large for a float64")
    return _deep_merge(_defaults(CONFIG_SCHEMA), doc)


def _read_json(path: str, what: str, error: type[ValueError]):
    """The JSON document in the ``what`` file at ``path``. A file that
    cannot be read raises OSError. Malformed JSON raises ``error``, as does
    an object that gives one key twice, which ``json.loads`` would settle
    silently by keeping the last."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        doc: dict = {}
        for key, value in pairs:
            if key in doc:
                raise error(f"{what} {path}: duplicate key {key!r}")
            doc[key] = value
        return doc

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


def _load_config_file(path: str) -> dict:
    doc = _read_json(path, "config", ConfigError)
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


def _load(args) -> tuple[dict, Dataset, Dataset | None, NetworkPlan]:
    """The resolved config of a command, its datasets and its plan.

    The --seed and --scope flags form an overlay laid over the file's config
    before the one validation, so a flag value is checked, defaulted and
    written to the manifest like a value from the file.
    """
    overlay = {}
    if getattr(args, "seed", None) is not None:
        overlay[args.seed_section] = {"seed": args.seed}
    if getattr(args, "scope", None) is not None:
        overlay["scope"] = args.scope
    doc = _deep_merge(_unwrap(_load_config_file(args.config)), overlay)
    # wrapped as a manifest again so that resolve_config unwraps only this
    # wrapper: a manifest whose config holds a "config" key still fails
    cfg = resolve_config({"config": doc})
    train, eval_ds = _load_datasets(cfg)
    return cfg, train, eval_ds, _build_plan(cfg, train)


def _build_plan(cfg: dict, ds: Dataset) -> NetworkPlan:
    try:
        return NetworkPlan(**cfg["plan"], n_classes=ds.n_classes, in_channels=ds.channels, image_hw=ds.image_hw)
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


def _csv(header: list[str], rows: list) -> str:
    """The one CSV format, for files and stdout alike."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(x) for x in row] for row in rows)
    return buf.getvalue()


# projection_trace.csv column -> the search_log.csv column it copies
_TRACE_COLUMNS = {"round": "round", "lambda1": "lambda1", "lambda2": "lambda2", "iterations": "proj_iters",
                  "feasible": "feasible", "phi_params": "phi_params", "phi_flops": "phi_flops"}
_COST_REPORT_COLUMNS = ["metric", "expected", "exact", "lower_bound", "upper_bound", "violation"]


def _cost_report_csv(rows: list[dict]) -> str:
    """One row per metric: its name, then each figure."""
    return _csv(_COST_REPORT_COLUMNS, [[r[h] for h in _COST_REPORT_COLUMNS] for r in rows])


def _out_file(args) -> Path | None:
    """The --out file with its parent directory made; None without --out.
    Commands call it once their inputs have loaded and validated, and
    before any costly work that the file would hold."""
    if not args.out:
        return None
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _load_arch(path: str) -> cells.DiscreteArch:
    return cells.DiscreteArch.from_json_dict(_read_json(path, "architecture", cells.ArchFormatError))


def _cmd_search(args) -> int:
    cfg, train, _, plan = _load(args)
    out_dir = Path(args.out if args.out is not None else cfg["out_dir"])
    box = _build_box(cfg)
    search_cfg = SearchConfig(**cfg["search"])
    proj_cfg = ProjectionConfig(**cfg["projection"])
    # made once the config has validated and before the search it will hold
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_search(plan, train, box, search_cfg, proj_cfg, CostScope(cfg["scope"]))

    manifest = {"command": "search", "version": __version__, "config": {k: v for k, v in cfg.items() if k != "out_dir"}}
    (out_dir / "manifest.json").write_text(_canonical_json(manifest))
    (out_dir / "arch.json").write_text(result.arch.to_canonical_json())
    (out_dir / "search_log.csv").write_text(_csv(LOG_COLUMNS, result.log_rows))
    proj_rows = [[getattr(r, c) for c in _TRACE_COLUMNS.values()] for r in result.log_rows if r.phase == "project"]
    (out_dir / "projection_trace.csv").write_text(_csv(list(_TRACE_COLUMNS), proj_rows))

    exact = result.report["exact_cost"]
    (out_dir / "cost_report.csv").write_text(_cost_report_csv(cost_report_rows(result.phi, exact, box)))
    (out_dir / "arch.dot").write_text(cells.export_dot(result.arch, plan.templates()))
    (out_dir / "report.json").write_text(_canonical_json(result.report))
    print(f"search done: {result.report['steps']} steps, feasible={result.feasible}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def _cmd_cost(args) -> int:
    cfg, _, _, plan = _load(args)
    box = _build_box(cfg)
    scope = CostScope(cfg["scope"])
    table = build_cost_table(plan)

    arch = _load_arch(args.arch)
    arch.validate(plan.templates())
    out = _out_file(args)
    theta = saturate_theta(arch, plan.templates())
    phi = expected_cost(theta, table, scope)
    exact = exact_cost(arch, plan)
    report = _cost_report_csv(cost_report_rows(phi, exact, box))
    print(report, end="")
    if out:
        out.write_text(report)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    cfg, train, eval_ds, plan = _load(args)
    en = cfg["enumerate"]
    if en["score"] and eval_ds is None:
        raise ConfigError("scoring needs data.n_eval > 0 (or eval_paths)")
    out = _out_file(args)
    space = MicroSpace(plan, ceiling=en["ceiling"])
    rows = [[i, arch.arch_hash(), *exact_cost(arch, plan)] for i, arch in enumerate(space.archs)]
    header = ["index", "arch_hash", "params", "flops"]
    if en["score"]:
        # the call `eval` makes, so a row's accuracy is what `eval` reports
        header.append("accuracy")
        for row, arch in zip(rows, space.archs):
            row.append(retrain_eval(arch, plan, train, eval_ds, **cfg["eval"]).accuracy)
    text = _csv(header, rows)
    if out:
        out.write_text(text)
        print(f"wrote {len(rows)} architectures to {out}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg, train, eval_ds, plan = _load(args)
    if eval_ds is None:
        raise ConfigError("eval needs data.n_eval > 0 (or eval_paths)")
    arch = _load_arch(args.arch)
    out = _out_file(args)
    res = retrain_eval(arch, plan, train, eval_ds, **cfg["eval"])
    doc = {
        "accuracy": res.accuracy,
        "loss": res.loss,
        "params": res.params,
        "flops": res.flops,
        "seed": res.seed,
    }
    print(_canonical_json(doc), end="")
    if out:
        out.write_text(_canonical_json(doc))
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    _, _, _, plan = _load(args)
    dot = cells.export_dot(_load_arch(args.arch), plan.templates())
    out = _out_file(args)
    if out:
        out.write_text(dot)
        print(f"wrote {args.out}")
    else:
        print(dot, end="")
    return EXIT_OK


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="rcnas", description="Cost-constrained architecture search.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads; `seed` names the section
    # whose seed --seed overrides
    def add_common(p, arch=False, needs_out=False, seed=None, scope=False):
        p.add_argument("--config", required=True, help="JSON config (or a manifest from a past run)")
        if arch:
            p.add_argument("--arch", required=True, help="architecture JSON file")
        p.add_argument("--out", default=None, help="output " + ("file" if needs_out else "directory"))
        if seed:
            p.add_argument("--seed", type=int, default=None, help=f"override {seed}.seed")
            p.set_defaults(seed_section=seed)
        if scope:
            scopes = CONFIG_SCHEMA["properties"]["scope"]["enum"]
            p.add_argument("--scope", choices=scopes, default=None, help="cost scope override")

    p_search = sub.add_parser("search", help="run the constrained bilevel search")
    add_common(p_search, seed="search", scope=True)
    p_search.set_defaults(func=_cmd_search)

    p_cost = sub.add_parser("cost", help="cost report for an architecture")
    add_common(p_cost, arch=True, needs_out=True, scope=True)
    p_cost.set_defaults(func=_cmd_cost)

    p_enum = sub.add_parser("enumerate", help="list every architecture in a small space")
    add_common(p_enum, needs_out=True)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_eval = sub.add_parser("eval", help="retrain an architecture and report accuracy")
    add_common(p_eval, arch=True, needs_out=True, seed="eval")
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
        # SearchAbort and ProjectionError report a numeric failure; numpy's warnings add nothing
        with np.errstate(all="ignore"):
            return args.func(args)
    # before ValueError, which FormatError subclasses
    except (OSError, FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, cells.ArchFormatError, SpaceTooLarge, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SearchAbort, ProjectionError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
