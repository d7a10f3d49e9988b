"""The library names that the benchmark's per-layer tracer wraps.

``perfbench/spans.py`` skips a ``LAYERS`` entry whose name the library
lacks, so a renamed entry point would read zero calls and fail nothing.
This guard fails instead.  ``RETIRED`` lists the names that the library
dropped on purpose while the tracer still lists them.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402

RETIRED = {"lyapunov_solve", "consensus_step", "dprgd_step", "dprgt_step", "init_tracker",
           "spd_inverse_sqrt", "sym_eig"}


def test_every_traced_layer_names_a_library_attribute():
    missing = []
    for name, where, attr in spans.LAYERS:
        module_name, _, class_names = where.partition(":")
        module = importlib.import_module(module_name)
        owners = [module] if not class_names else [getattr(module, c, None)
                                                   for c in class_names.split(",")]
        if attr not in RETIRED and not all(hasattr(owner, attr) for owner in owners):
            missing.append(f"{name}: {where}.{attr}")
    assert missing == []
