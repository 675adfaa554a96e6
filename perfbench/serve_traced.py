"""Run ``repro serve`` with the traced run's timing wrappers installed.

Usage::

    PYTHONPATH=src python3 perfbench/serve_traced.py SPANS.json [serve options]

The wrappers of :func:`layers.install_service` go in before the CLI
builds the service; spans, tallies and samples stay in memory and are
written to ``SPANS.json`` when the server shuts down.
"""

from __future__ import annotations

import sys
from pathlib import Path

import layers
import tracing


def main(argv) -> int:
    spans = Path(argv[0])
    rec = tracing.Recorder()
    layers.install_service(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv[1:]])
    finally:
        rec.unpatch_all()
        rec.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
