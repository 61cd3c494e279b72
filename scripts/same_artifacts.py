#!/usr/bin/env python3
"""Check that a change leaves the search artifacts and CLI output byte-identical.

Unpacks git revision REV into a temporary directory with ``git archive``,
runs ``rcnas search --config configs/toy_blobs.json`` once from that copy's
source and once from the work tree's, then from the same tree ``rcnas
eval`` (once as configured and once with ``"eval": {"cutout": true}``
laid over a copy of the config), ``rcnas cost`` and ``rcnas export-dot``
of each run's ``arch.json`` and ``rcnas enumerate --config
configs/micro_enumerate.json``, and prints ``json.dumps(CONFIG_SCHEMA,
sort_keys=True, indent=1)``, one line per property. A second search runs
the same config with ``constraints.upper`` set to BINDING_UPPER, a box its
projection has to descend into, followed by ``rcnas cost`` of its
``arch.json``. It compares the six
primary artifacts, ``eval.json``, ``eval_cutout.json``, the stdout of cost,
export-dot and enumerate, the printed schema, and the binding search's six
artifacts and cost stdout byte for byte, so a change
that should leave the config schema alone is checked to accept and reject
the same documents. Prints one line per output, and below each output that
differs a unified diff of at most DIFF_LINES lines; exits 1 if any differs
(2 if a command fails).

    python3 scripts/same_artifacts.py 70327fc
"""

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEARCH = ("manifest.json", "arch.json", "search_log.csv", "projection_trace.csv", "cost_report.csv", "arch.dot")
ARTIFACTS = SEARCH + ("eval.json", "eval_cutout.json")
STDOUT = ("cost.stdout", "export-dot.stdout", "enumerate.stdout", "schema.stdout")  # each command's stdout, kept under this name
# the binding search's artifacts and cost stdout, in its own directory;
# under this box its three projection rounds take 43, 1 and 0 iterations
BINDING_UPPER = [560.0, 33000.0]
BINDING = tuple(f"binding/{name}" for name in SEARCH + ("cost.stdout",))
OUTPUTS = ARTIFACTS + STDOUT + BINDING
SCHEMA = "import json; from rcnas.cli import CONFIG_SCHEMA; print(json.dumps(CONFIG_SCHEMA, sort_keys=True, indent=1))"
CONFIG = "configs/toy_blobs.json"
WORK_TREE = Path(__file__).resolve().parent.parent
DIFF_LINES = 40


def run_tree(tree: Path, out: Path) -> None:
    """One search, then an eval without and with cutout, a cost report and
    a DOT export of its architecture, an enumeration, the config schema, and
    the binding search with its cost report, from ``tree``'s own source and
    configs, written to ``out``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cli = [sys.executable, "-m", "rcnas.cli"]
    arch = str(out / "arch.json")
    cutout = out / "cutout_config.json"
    binding = out / "binding_config.json"
    doc = json.loads((tree / CONFIG).read_text())
    out.mkdir(parents=True)
    cutout.write_text(json.dumps({**doc, "eval": {**doc.get("eval", {}), "cutout": True}}))
    binding.write_text(json.dumps({**doc, "constraints": {**doc["constraints"], "upper": BINDING_UPPER}}))
    for args in (
        ["search", "--config", CONFIG, "--out", str(out)],
        ["eval", "--config", CONFIG, "--arch", arch, "--out", str(out / "eval.json")],
        ["eval", "--config", str(cutout), "--arch", arch, "--out", str(out / "eval_cutout.json")],
        ["search", "--config", str(binding), "--out", str(out / "binding")],
    ):
        subprocess.run(cli + args, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    for name, command in zip(STDOUT + BINDING[-1:], (
        cli + ["cost", "--config", CONFIG, "--arch", arch],
        cli + ["export-dot", "--config", CONFIG, "--arch", arch],
        cli + ["enumerate", "--config", "configs/micro_enumerate.json"],
        [sys.executable, "-c", SCHEMA],
        cli + ["cost", "--config", str(binding), "--arch", str(out / "binding" / "arch.json")],
    )):
        (out / name).write_bytes(subprocess.run(command, cwd=tree, env=env, check=True, capture_output=True).stdout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("rev", help="git revision to compare the work tree against")
    args = p.parse_args()
    with tempfile.TemporaryDirectory(prefix="same_artifacts_") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=WORK_TREE, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        try:
            run_tree(base, tmp / "run_base")
            run_tree(WORK_TREE, tmp / "run_work")
        except subprocess.CalledProcessError as exc:
            print(f"command failed: {exc}", file=sys.stderr)
            return 2
        differ = 0
        for name in OUTPUTS:
            before, after = ((tmp / run / name).read_bytes() for run in ("run_base", "run_work"))
            same = before == after
            differ += not same
            print(f"{name}: {'identical' if same else 'DIFFERS'}")
            if not same:
                lines = (text.decode(errors="replace").splitlines() for text in (before, after))
                diff = list(difflib.unified_diff(*lines, f"{args.rev}/{name}", f"work/{name}", lineterm=""))
                print("\n".join(diff[:DIFF_LINES]))
                if len(diff) > DIFF_LINES:
                    print(f"... {len(diff) - DIFF_LINES} more diff lines")
    print(f"{len(OUTPUTS) - differ}/{len(OUTPUTS)} outputs byte-identical to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
