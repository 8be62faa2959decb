#!/usr/bin/env python3
"""Train the model that `infer-heldout` serves, in a process of its own.

    python3 perfbench/train_served.py OUT_DIR STEPS

Runs `train()` on the default fff+sfs+pm config with model seed 0, which
writes OUT_DIR/checkpoint.bin, and writes each training step's wall time in
seconds to OUT_DIR/step_s.json.  `infer-heldout` starts it during set-up, so
that the benchmark process itself never trains and serves the checkpoint as
`scalefuse eval` would: from a fresh process.
"""

import json
import sys
from pathlib import Path

import run  # puts the checkout's src/ on the path and sets OPENBLAS_NUM_THREADS

SERVED_SEED = 0
EVAL_SCENES = 8


def main(argv):
    out, steps = Path(argv[0]), int(argv[1])
    run.import_program()
    from scalefuse.model import ModelConfig
    from scalefuse.train import train

    from tracing import Markers, Patches

    markers, patches = Markers(), Patches()
    markers.install(patches)
    try:
        train(ModelConfig(seed=SERVED_SEED).validate(), steps, out, eval_every=steps,
              eval_scenes=EVAL_SCENES, export_maps=False)
    finally:
        patches.restore()
    (out / "step_s.json").write_text(json.dumps(markers.step_s))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
