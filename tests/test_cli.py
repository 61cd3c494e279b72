"""Command-line interface: artifacts, manifest reruns, exit codes."""

import argparse
import csv
import inspect
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcnas import cli
from rcnas.cells import DiscreteArch
from rcnas.cli import CONFIG_SCHEMA, DEFAULT_CONFIG, ConfigError, main, resolve_config
from rcnas.exhaustive import MicroSpace
from rcnas.network import NetworkPlan
from rcnas.projection import ProjectionConfig
from rcnas.search import LOG_COLUMNS, SearchConfig, retrain_eval
from rcnas.settings import settings as call_settings

PRIMARY_ARTIFACTS = [
    "manifest.json",
    "arch.json",
    "search_log.csv",
    "projection_trace.csv",
    "cost_report.csv",
    "arch.dot",
]


def _tiny_config(**over):
    cfg = {
        "data": {"name": "blobs", "n": 64, "n_eval": 32, "image_hw": [8, 8], "seed": 1},
        "plan": {"n_cells": 2, "init_channels": 4, "n_nodes": 4, "k_levels": 1},
        "search": {"epochs": 2, "batch_size": 16, "e_u": 2, "warm_start_multiplier": 2},
        "projection": {"lr": 3e-3, "max_iters": 20},
        "eval": {"epochs": 1, "batch_size": 16},
    }
    for key, val in over.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


@pytest.fixture(scope="module")
def search_run(tmp_path_factory):
    """One shared tiny search run; read-only for the tests below."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out = root / "run"
    assert main(["search", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


def test_search_writes_expected_artifacts(search_run):
    _, out = search_run
    for name in PRIMARY_ARTIFACTS + ["report.json"]:
        assert (out / name).exists(), name

    arch = DiscreteArch.from_json_dict(json.loads((out / "arch.json").read_text()))
    assert set(arch.choices) == {"normal.0", "connect"}

    log_lines = (out / "search_log.csv").read_text().splitlines()
    assert log_lines[0] == ",".join(LOG_COLUMNS)
    assert len([l for l in log_lines[1:] if ",search," in l]) == 4

    report = json.loads((out / "report.json").read_text())
    assert report["feasible"] is True
    assert report["steps"] == 4

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "search"
    assert "out_dir" not in manifest["config"]

    trace_lines = (out / "projection_trace.csv").read_text().splitlines()
    assert trace_lines[0] == "round,lambda1,lambda2,iterations,feasible,phi_params,phi_flops"
    assert len(trace_lines) >= 2


def test_search_log_cells_have_one_format(search_run):
    _, out = search_run
    with (out / "search_log.csv").open(newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows and list(rows[0]) == LOG_COLUMNS
    for row in rows:
        assert row["phase"] in ("search", "project")
        assert row["feasible"] in ("0", "1")
        assert row["step"] == str(int(row["step"])) and row["round"] == str(int(row["round"]))
        if row["phase"] == "search":
            assert row["proj_iters"] == ""
        else:
            assert row["train_loss"] == row["val_loss"] == ""
            assert row["proj_iters"] == str(int(row["proj_iters"]))
        floats = ["train_loss", "val_loss", "phi_params", "phi_flops", "lambda1", "lambda2"]
        for name in floats:
            if row[name]:
                assert row[name] == repr(float(row[name])), name


@pytest.mark.parametrize(
    "section,call,from_data",
    [
        ("search", SearchConfig, []),
        ("projection", ProjectionConfig, []),
        ("plan", NetworkPlan, ["n_classes", "in_channels", "image_hw"]),
        ("eval", retrain_eval, []),
    ],
    ids=["search-SearchConfig", "projection-ProjectionConfig", "plan-NetworkPlan", "eval-retrain_eval"],
)
def test_each_config_section_holds_the_keywords_of_its_call(section, call, from_data):
    # the CLI passes a section with ** and the data's shape beside it, so the
    # two together must be the call's keyword parameters, each once
    params = inspect.signature(call).parameters
    keywords = sorted(n for n, p in params.items() if p.default is not p.empty)
    assert sorted([*CONFIG_SCHEMA["properties"][section]["properties"], *from_data]) == keywords
    assert sorted([*DEFAULT_CONFIG[section], *from_data]) == keywords
    # and the call given none of them runs what an empty config runs
    defaults = {name: params[name].default for name in DEFAULT_CONFIG[section]}
    assert json.loads(json.dumps(defaults)) == resolve_config({})[section]


_CALLS = {"search": SearchConfig, "projection": ProjectionConfig, "plan": NetworkPlan, "eval": retrain_eval}
# (section, setting, bound keyword, bound) of every bounded setting of the
# four call sections
_BOUNDED = [
    (section, name, key, bound)
    for section in _CALLS
    for name, prop in CONFIG_SCHEMA["properties"][section]["properties"].items()
    for key, bound in prop.items()
    if key in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
]


@pytest.mark.parametrize("section,name,key,bound", _BOUNDED, ids=[f"{s}.{n}.{k}" for s, n, k, _ in _BOUNDED])
def test_a_setting_just_past_its_bound_raises_from_its_call(section, name, key, bound):
    prop = CONFIG_SCHEMA["properties"][section]["properties"][name]
    integer = prop["type"] == "integer"
    if key.startswith("exclusive"):
        bad = bound
    elif integer:
        bad = bound - 1 if key == "minimum" else bound + 1
    else:
        bad = math.nextafter(bound, -math.inf if key == "minimum" else math.inf)
    with pytest.raises(ValueError, match=name):
        if section == "eval":
            # no architecture, plan or data: it must raise before it trains
            retrain_eval(None, None, None, None, **{name: bad})
        else:
            _CALLS[section](**{name: bad})


# (section, setting) of every float setting of the four calls, as each call declares it
_FLOATS = [
    (section, name) for section, call in _CALLS.items() for name, (kind, _) in call_settings(call).items() if kind is float
]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("section,name", _FLOATS, ids=[f"{s}.{n}" for s, n in _FLOATS])
def test_a_non_finite_float_setting_raises_from_its_call(section, name, value):
    # a range such as lambda1 >= 0 holds for inf, so the call must refuse
    # non-finite values itself: a library caller never passes the CLI's check
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        if section == "eval":
            retrain_eval(None, None, None, None, **{name: value})
        else:
            _CALLS[section](**{name: value})


def test_manifest_rerun_is_byte_identical(search_run, tmp_path):
    _, out = search_run
    out2 = tmp_path / "rerun"
    rc = main(["search", "--config", str(out / "manifest.json"), "--out", str(out2)])
    assert rc == 0
    for name in PRIMARY_ARTIFACTS:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_seed_override_changes_manifest(search_run, tmp_path):
    _, out = search_run
    out2 = tmp_path / "reseeded"
    rc = main(["search", "--config", str(out / "manifest.json"), "--out", str(out2), "--seed", "99"])
    assert rc == 0
    a = json.loads((out / "manifest.json").read_text())
    b = json.loads((out2 / "manifest.json").read_text())
    assert a["config"]["search"]["seed"] == 0
    assert b["config"]["search"]["seed"] == 99
    assert (out / "search_log.csv").read_bytes() != (out2 / "search_log.csv").read_bytes()


def test_cost_command_agrees_with_search_artifacts(search_run, tmp_path):
    cfg_path, out = search_run
    report_csv = tmp_path / "cost.csv"
    rc = main([
        "cost", "--config", str(cfg_path), "--arch", str(out / "arch.json"),
        "--out", str(report_csv),
    ])
    assert rc == 0
    lines = report_csv.read_text().splitlines()
    assert lines[0] == "metric,expected,exact,lower_bound,upper_bound,violation"
    for line in lines[1:]:
        parts = line.split(",")
        expected, exact = float(parts[1]), float(parts[2])
        # saturated mixture cost collapses onto the discrete cost
        assert expected == pytest.approx(exact, rel=1e-9)
        assert float(parts[5]) == 0.0


def test_export_dot_lists_chosen_ops(search_run, tmp_path):
    cfg_path, out = search_run
    dot_path = tmp_path / "arch.dot"
    rc = main([
        "export-dot", "--config", str(cfg_path), "--arch", str(out / "arch.json"),
        "--out", str(dot_path),
    ])
    assert rc == 0
    dot = dot_path.read_text()
    assert dot.startswith("digraph")
    arch = DiscreteArch.from_json_dict(json.loads((out / "arch.json").read_text()))
    n_picks = sum(len(p) for nodes in arch.choices.values() for p in nodes.values())
    op_edges = [l for l in dot.splitlines() if "->" in l and 'label="' in l]
    assert len(op_edges) == n_picks
    assert dot == (out / "arch.dot").read_text()


def test_eval_is_deterministic(search_run, tmp_path):
    cfg_path, out = search_run
    res_a, res_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["eval", "--config", str(cfg_path), "--arch", str(out / "arch.json")]
    assert main(argv + ["--out", str(res_a)]) == 0
    assert main(argv + ["--out", str(res_b)]) == 0
    assert res_a.read_bytes() == res_b.read_bytes()
    doc = json.loads(res_a.read_text())
    assert set(doc) == {"accuracy", "loss", "params", "flops", "seed"}
    assert 0.0 <= doc["accuracy"] <= 1.0


@pytest.mark.parametrize("command", ["cost", "eval", "export-dot"])
def test_out_file_under_a_missing_directory_is_written(search_run, tmp_path, monkeypatch, command):
    cfg_path, run = search_run
    out = tmp_path / "new" / "deeper" / "out.txt"
    real_retrain = cli.retrain_eval

    def retrain_after_mkdir(*args, **kwargs):
        # the directory exists before the retraining whose result it holds
        assert out.parent.is_dir()
        return real_retrain(*args, **kwargs)

    monkeypatch.setattr(cli, "retrain_eval", retrain_after_mkdir)
    rc = main([command, "--config", str(cfg_path), "--arch", str(run / "arch.json"), "--out", str(out)])
    assert rc == 0
    assert out.read_text()


def test_enumerate_lists_whole_space(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out_csv = tmp_path / "enum.csv"
    rc = main(["enumerate", "--config", str(cfg_path), "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "index,arch_hash,params,flops"
    assert len(lines) == 1 + 196
    hashes = {l.split(",")[1] for l in lines[1:]}
    assert len(hashes) == 196
    params = [float(l.split(",")[2]) for l in lines[1:]]
    assert min(params) > 0 and max(params) > min(params)


def test_scored_enumerate_matches_eval_at_the_eval_seed(tmp_path):
    # one recipe for both commands: a learning rate and cutout off their
    # defaults must reach the scores too
    cfg = _tiny_config(
        plan={"n_cells": 1, "use_connection": False},
        eval={"epochs": 2, "batch_size": 16, "lr": 0.3, "seed": 0, "cutout": True},
        enumerate={"score": True},
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_csv = tmp_path / "enum.csv"
    assert main(["enumerate", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
    with out_csv.open(newline="") as f:
        rows = list(csv.DictReader(f))
    _, _, _, plan = cli._load(argparse.Namespace(config=str(cfg_path)))
    archs = MicroSpace(plan).archs
    assert len(rows) == len(archs) == 49
    for row, arch in zip(rows, archs):
        arch_path = tmp_path / "arch.json"
        arch_path.write_text(arch.to_canonical_json())
        res_path = tmp_path / "eval.json"
        assert main(["eval", "--config", str(cfg_path), "--arch", str(arch_path), "--out", str(res_path)]) == 0
        assert float(row["accuracy"]) == json.loads(res_path.read_text())["accuracy"], row["index"]


def test_scored_enumerate_without_eval_data_exits_2_before_making_out_dir(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(data={"n_eval": 0}, enumerate={"score": True})))
    out = tmp_path / "new" / "enum.csv"
    assert main(["enumerate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "scoring needs data.n_eval" in capsys.readouterr().err
    assert not out.parent.exists()


# the CI scored config at a learning rate that aborts the first retrain
DIVERGE_CONFIG = {
    "data": {"name": "blobs", "n": 64, "n_eval": 32, "image_hw": [8, 8], "seed": 1},
    "plan": {"n_cells": 1, "n_nodes": 4, "k_levels": 1, "use_connection": False},
    "eval": {"epochs": 2, "batch_size": 16, "lr": 1e300, "seed": 0},
    "enumerate": {"score": True},
}


def test_scored_enumerate_whose_retrain_diverges_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(DIVERGE_CONFIG))
    assert main(["enumerate", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "Traceback" not in err


def test_numeric_failure_writes_one_stderr_line(tmp_path):
    # a fresh process, since pytest captures the warnings numpy would print
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(DIVERGE_CONFIG))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "rcnas.cli", "enumerate", "--config", str(cfg_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: "), proc.stderr


def test_enumerate_respects_ceiling(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(enumerate={"ceiling": 10})))
    assert main(["enumerate", "--config", str(cfg_path)]) == 2


def test_infeasible_box_completes_and_reports(tmp_path):
    cfg = _tiny_config(constraints={"lower": [None, None], "upper": [1.0, 1.0]})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["feasible"] is False
    rows = (out / "cost_report.csv").read_text().splitlines()[1:]
    assert any(float(r.split(",")[5]) > 0 for r in rows)


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["search", "--config", str(p)]) == 2
    assert "config" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"plant": {"n_cells": 2}}))
    assert main(["search", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "plant" in err


@pytest.mark.parametrize(
    "doc,error",
    [
        ({"config": {"config": _tiny_config()}}, "config invalid at <root>: Additional properties"),
        (_tiny_config(search=5), "config invalid at search: 5 is not of type 'object'"),
        # JSON integers that no float64 holds pass the schema's bounds
        (_tiny_config(constraints={"upper": [10**400, None]}), "config invalid at constraints/upper/0: integer too large"),
        (_tiny_config(projection={"lambda1": 10**400}), "config invalid at projection/lambda1: integer too large"),
    ],
    ids=["manifest-of-a-manifest", "section-not-an-object", "bound-beyond-float64", "weight-beyond-float64"],
)
def test_flags_leave_an_invalid_config_invalid(tmp_path, capsys, doc, error):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    for flags in ([], ["--seed", "1", "--scope", "topk"]):
        assert main(["search", "--config", str(p), "--out", str(tmp_path / "run")] + flags) == 2
        assert error in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_bad_nested_value_names_path(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_tiny_config(search={"epochs": 0})))
    assert main(["search", "--config", str(p)]) == 2
    assert "search/epochs" in capsys.readouterr().err


def test_nan_constraint_bound_exits_2(tmp_path, capsys):
    # json reads NaN and the schema's minimum does not reject it; the box does
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(_tiny_config(constraints={"lower": [None, None], "upper": [float("nan"), 300000.0]})))
    assert "NaN" in p.read_text()
    assert main(["search", "--config", str(p), "--out", str(tmp_path / "run")]) == 2
    assert "NaN" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "path,over",
    [
        ("projection/lambda1", {"projection": {"lambda1": 12345.5}}),
        ("search/theta_lr", {"search": {"theta_lr": 12345.5}}),
        ("constraints/upper/0", {"constraints": {"upper": [12345.5, None]}}),
    ],
    ids=["projection.lambda1", "search.theta_lr", "constraints.upper.0"],
)
def test_non_finite_number_exits_2_naming_its_path(tmp_path, capsys, path, over, token):
    # json reads each token as a non-finite float (1e999 as inf), which no
    # setting can use, and a range such as lambda1 >= 0 lets inf through
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(_tiny_config(**over)).replace("12345.5", token))
    assert main(["search", "--config", str(p), "--out", str(tmp_path / "run")]) == 2
    assert f"config invalid at {path}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_manifest_with_removed_settings_exits_2_naming_them(tmp_path, capsys):
    cfg = _tiny_config()
    cfg["search"]["val_fraction"] = 0.5
    cfg["plan"]["reduction_positions"] = None
    cfg["enumerate"] = {"workers": 1}
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps({"command": "search", "version": "0", "config": cfg}))
    assert main(["search", "--config", str(p), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "'val_fraction' was unexpected" in err and "'reduction_positions' was unexpected" in err
    assert "'workers' was unexpected" in err
    assert not (tmp_path / "run").exists()


def test_missing_config_exits_4(tmp_path):
    assert main(["search", "--config", str(tmp_path / "nope.json")]) == 4


def test_missing_arch_exits_4(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    for command in ("cost", "eval", "export-dot"):
        out = tmp_path / command / "out.txt"
        rc = main([command, "--config", str(cfg_path), "--arch", str(tmp_path / "nope.json"), "--out", str(out)])
        assert rc == 4, command
        assert not out.parent.exists(), command


def test_search_out_under_a_file_exits_4_before_searching(tmp_path, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before the run directory was made")

    monkeypatch.setattr(cli, "run_search", no_search)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    blocker = tmp_path / "afile"
    blocker.write_text("")
    assert main(["search", "--config", str(cfg_path), "--out", str(blocker / "run")]) == 4


def test_invalid_arch_document_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps({"schema_version": 1, "kinds": {"normal.0": {"nodes": {"2": []}}}}))
    for command in ("cost", "export-dot"):
        out = tmp_path / command / "out.txt"
        rc = main([command, "--config", str(cfg_path), "--arch", str(arch_path), "--out", str(out)])
        assert rc == 2, command
        # the arch is rejected before the --out directory is made
        assert not out.parent.exists(), command


@pytest.mark.parametrize(
    "nodes",
    [
        {"2": [{"pred": None, "op": "sep_conv_3x3"}, {"pred": 1, "op": "sep_conv_3x3"}]},
        [],
    ],
    ids=["null-pred", "nodes-list"],
)
def test_malformed_arch_document_exits_2_without_traceback(tmp_path, capsys, nodes):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps({"schema_version": 1, "kinds": {"normal.0": {"nodes": nodes}}}))
    rc = main(["cost", "--config", str(cfg_path), "--arch", str(arch_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def _node_2_also_as(spelling):
    """The document with node 2's picks repeated under ``spelling``: a
    loader that merges the two keys sees the same architecture."""

    def edit(doc):
        picks = json.dumps(doc["kinds"]["normal.0"]["nodes"]["2"])
        head = '"normal.0": {"nodes": {'
        return json.dumps(doc).replace(head, f"{head}{json.dumps(spelling)}: {picks}, ", 1)

    return edit


@pytest.mark.parametrize(
    "edit, named",
    [
        (_node_2_also_as("02"), "'02'"),
        (_node_2_also_as(" 2"), "' 2'"),
        (_node_2_also_as("2"), "duplicate key '2'"),
        (lambda doc: json.dumps({**doc, "schema_version": True}), "schema_version True"),
        (lambda doc: json.dumps({**doc, "schema_version": 1.0}), "schema_version 1.0"),
    ],
    ids=["leading-zero-key", "leading-space-key", "repeated-key", "bool-version", "float-version"],
)
def test_a_second_spelling_of_a_key_or_version_exits_2(search_run, tmp_path, capsys, edit, named):
    cfg_path, out = search_run
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(edit(json.loads((out / "arch.json").read_text())))
    assert main(["cost", "--config", str(cfg_path), "--arch", str(arch_path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text, key",
    [
        (json.dumps(_tiny_config())[:-1] + ', "eval": {"epochs": 2}}', "'eval'"),
        (json.dumps(_tiny_config(enumerate={"ceiling": 10})).replace('"ceiling": 10', '"ceiling": 10, "ceiling": 100000'), "'ceiling'"),
    ],
    ids=["top-level", "nested"],
)
def test_a_config_key_given_twice_exits_2(search_run, tmp_path, capsys, text, key):
    # json.loads would keep the last value and enumerate the space
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["enumerate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"duplicate key {key}" in err and str(cfg_path) in err and "Traceback" not in err
    # a written manifest still loads
    _, out = search_run
    assert cli._load_config_file(str(out / "manifest.json"))["command"] == "search"


def test_poisoned_search_exits_3(tmp_path, monkeypatch):
    import rcnas.cli as cli_mod
    from rcnas.data import make_blobs

    def poisoned(cfg):
        ds = make_blobs(64, (8, 8), seed=1)
        ds.images[0, 0, 0, 0] = np.nan
        return ds, None

    monkeypatch.setattr(cli_mod, "_load_datasets", poisoned)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    rc = main(["search", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert rc == 3


def test_scope_flag_round_trips_through_manifest(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config()))
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg_path), "--out", str(out), "--scope", "fulldag"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["scope"] == "fulldag"
    out2 = tmp_path / "rerun"
    assert main(["search", "--config", str(out / "manifest.json"), "--out", str(out2)]) == 0
    assert (out / "search_log.csv").read_bytes() == (out2 / "search_log.csv").read_bytes()


def test_seed_flag_leaves_the_defaults_untouched(tmp_path):
    # neither config has the section its --seed overrides, and each run fails
    # after resolving it: eval for want of eval data, search on its plan
    eval_cfg = _tiny_config(data={"n_eval": 0})
    del eval_cfg["eval"]
    search_cfg = _tiny_config(data={"image_hw": [6, 6]}, plan={"n_cells": 3})
    del search_cfg["search"]
    for command, cfg, seed in (("eval", eval_cfg, "7"), ("search", search_cfg, "9")):
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / command), "--seed", seed]
        if command == "eval":
            argv += ["--arch", str(tmp_path / "arch.json")]
        assert main(argv) == 2, command
    for section in ("search", "eval"):
        assert DEFAULT_CONFIG[section]["seed"] == 0, section
        assert resolve_config({})[section]["seed"] == 0, section
    # nor does a library caller that edits a resolved config
    resolved = resolve_config({})
    resolved["search"]["seed"] = 9
    resolved["constraints"]["upper"][0] = 1.0
    assert DEFAULT_CONFIG["search"]["seed"] == 0
    assert DEFAULT_CONFIG["constraints"]["upper"] == resolve_config({})["constraints"]["upper"] == [None, None]


@pytest.mark.parametrize("command", ["search", "eval"])
def test_negative_seed_flag_fails_the_schema(search_run, tmp_path, capsys, command):
    cfg_path, run = search_run
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(out), "--seed", "-1"]
    if command == "eval":
        argv += ["--arch", str(run / "arch.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config invalid at {command}/seed" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cost", "enumerate"])
def test_stdout_matches_the_out_file(search_run, tmp_path, capsys, command):
    cfg_path, run = search_run
    argv = [command, "--config", str(cfg_path)]
    if command == "cost":
        argv += ["--arch", str(run / "arch.json")]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert printed.encode() == out.read_bytes()


@pytest.mark.parametrize(
    "command,flag",
    [
        ("cost", "--seed"),
        ("enumerate", "--seed"),
        ("export-dot", "--seed"),
        ("eval", "--scope"),
        ("enumerate", "--scope"),
        ("export-dot", "--scope"),
    ],
)
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    argv = [command, "--config", str(tmp_path / "cfg.json")]
    if command in ("cost", "eval", "export-dot"):
        argv += ["--arch", str(tmp_path / "arch.json")]
    value = "1" if flag == "--seed" else "topk"
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert f"usage: rcnas {command}" in err
    assert "Traceback" not in err


# any JSON value a config file can hold: NaN, the infinities and integers
# too large for a float64 included; two of the five kinds of number are
# small and non-negative, as most settings take
_NUMBER = st.integers(0, 64) | st.floats(0, 1) | st.integers() | st.integers(2**1024, 2**1100) | st.floats()
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=6), lambda inner: st.lists(inner, max_size=3), max_leaves=6
)
# every section and setting, an unknown key and a manifest's "config" key
_PATHS = [(name,) for name in CONFIG_SCHEMA["properties"]] + [
    (name, key) for name, prop in CONFIG_SCHEMA["properties"].items() for key in prop.get("properties", {})
] + [("bogus",), ("config",)]


def _nest(entries) -> dict:
    doc = {}
    for path, value in entries:
        if len(path) == 1:
            doc[path[0]] = value
        elif isinstance(doc.setdefault(path[0], {}), dict):
            doc[path[0]][path[1]] = value
    return doc


# a few settings each, so that many documents pass the schema
_DOCS = st.lists(st.tuples(st.sampled_from(_PATHS), _JSON), max_size=4).map(_nest)


@settings(max_examples=300, deadline=None)
@given(
    doc=_DOCS | _DOCS.map(lambda d: {"config": d}),
    seed=st.none() | st.integers(0, 64) | st.integers(),
    seed_section=st.sampled_from(["search", "eval"]),
    scope=st.none() | st.sampled_from(CONFIG_SCHEMA["properties"]["scope"]["enum"]),
)
def test_any_config_document_resolves_or_raises_config_error(tmp_path_factory, doc, seed, seed_section, scope):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(doc))
    args = argparse.Namespace(config=str(path), seed=seed, seed_section=seed_section, scope=scope)

    def small_data(cfg):
        cli._build_box(cfg)
        # the plan reads only these from the data, so no images are made
        return types.SimpleNamespace(n_classes=4, channels=3, image_hw=tuple(cfg["data"]["image_hw"])), None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_load_datasets", small_data)
        try:
            cli._load(args)  # resolve_config, the box in small_data, then _build_plan
        except ConfigError:
            pass
