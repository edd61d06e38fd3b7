"""Traced stand-in for ``python -m extremenu.cli`` used by the cli-cold traced run.

Usage: python cli_child.py STATS_JSON CLI_ARGS...

Installs the tracer after import, runs ``extremenu.cli.main(CLI_ARGS)`` and
writes the trace statistics to STATS_JSON. Exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from extremenu import cli, model  # noqa: E402

from perfbench.tracer import Tracer  # noqa: E402


def main(stats_path, argv):
    tracer = Tracer()
    tracer.install()
    hits = model.extended_menu.cache_info().hits
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.counters["cache_hits"] += model.extended_menu.cache_info().hits - hits
    Path(stats_path).write_text(json.dumps(tracer.to_dict()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
