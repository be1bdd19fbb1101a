"""Run one ``repro-hmeans`` command with per-layer self-time accounting.

Usage: ``PERFBENCH_LAYERS_OUT=FILE python3 perfbench/traced_main.py ARGS``.
Wraps the public functions listed in :mod:`layers`, runs
``repro.cli.main(ARGS)`` and writes the layer totals to ``FILE`` when the
command returns (for ``serve``, after the daemon drains on SIGTERM).
"""

import os
import sys

import layers


def main() -> int:
    argv = sys.argv[1:]
    layers.import_for(argv)
    recorder = layers.LayerRecorder().install()
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(os.environ["PERFBENCH_LAYERS_OUT"])


if __name__ == "__main__":
    sys.exit(main())
